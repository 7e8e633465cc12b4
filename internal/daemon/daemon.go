// Package daemon is the process skeleton taskgraind and taskmeshd share:
// layering the configuration (defaults < -config file < environment <
// flags), the bounded HTTP listener, serve-until-signal, the final counter
// dump and the error exit.
package daemon

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Config is a daemon configuration as the skeleton layers it.
type Config interface {
	ApplyEnv(lookup func(string) (string, bool)) error
	Flags(fs *flag.FlagSet)
}

// Configure layers cfg, which holds the defaults, under the -config file
// (read by load into cfg), the environment and the flags in args; fs may
// already carry daemon-only flags. It returns 0 on success, otherwise the
// exit code: 2 for a bad flag (fs has printed why), 1 for anything else.
func Configure(fs *flag.FlagSet, args []string, stderr io.Writer, cfg Config, load func(path string) error) int {
	// The -config file is the lowest explicit layer, so its path must be
	// known before flag parsing binds the remaining layers; pre-scan for it.
	if path := ConfigPathFromArgs(args); path != "" {
		if err := load(path); err != nil {
			return Fail(stderr, fs.Name(), err)
		}
	}
	if err := cfg.ApplyEnv(os.LookupEnv); err != nil {
		return Fail(stderr, fs.Name(), err)
	}
	fs.SetOutput(stderr)
	fs.String("config", "", "JSON configuration file")
	cfg.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	return 0
}

// ConfigPathFromArgs extracts the -config value ahead of full flag parsing.
func ConfigPathFromArgs(args []string) string {
	for i := 0; i < len(args); i++ {
		a := args[i]
		for _, prefix := range []string{"-config", "--config"} {
			if a == prefix && i+1 < len(args) {
				return args[i+1]
			}
			if strings.HasPrefix(a, prefix+"=") {
				return strings.TrimPrefix(a, prefix+"=")
			}
		}
	}
	return ""
}

// Fail prints the error under the daemon's name and returns exit code 1.
func Fail(stderr io.Writer, name string, err error) int {
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	return 1
}

// FlushCounters writes the final counter snapshot, sorted by name, so the
// run's totals survive in the daemon's log after shutdown.
func FlushCounters(w io.Writer, snap map[string]float64) {
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "final counters:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-50s %v\n", n, snap[n])
	}
}

// NewHTTPServer wraps a daemon handler with the connection bounds a
// network-facing listener needs. No ReadTimeout/WriteTimeout: status
// long-polls legitimately hold a response open for minutes. Header reads and
// idle keep-alives still get bounded so stalled clients cannot pin
// connections forever.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// Serve listens on addr, reports the bound address to listening, and serves
// h until SIGTERM or SIGINT. It then runs drain with the listener still up —
// so late clients get the daemon's own 503 rather than a refused connection
// — and shuts the listener down. It returns drain's error, or the listen or
// serve error that ended it before any signal (drain never ran).
func Serve(addr string, h http.Handler, listening func(net.Addr), drain func(os.Signal) error) error {
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigc)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := NewHTTPServer(h)
	listening(ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case sig := <-sigc:
		err = drain(sig)
	case err := <-errc:
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	return err
}
