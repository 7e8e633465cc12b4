package daemon

import (
	"net"
	"net/http"
	"os"
	"testing"
)

// TestDaemonSkeleton covers the pieces both daemons take from this package
// instead of copying them.
func TestDaemonSkeleton(t *testing.T) {
	for _, c := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"config-path-from-args", func(t *testing.T) {
			cases := []struct {
				args []string
				want string
			}{
				{nil, ""},
				{[]string{"-addr", ":0"}, ""},
				{[]string{"-config", "a.json"}, "a.json"},
				{[]string{"--config", "b.json"}, "b.json"},
				{[]string{"-config=c.json"}, "c.json"},
				{[]string{"--config=d.json"}, "d.json"},
				{[]string{"-workers", "2", "-config", "e.json"}, "e.json"},
			}
			for _, c := range cases {
				if got := ConfigPathFromArgs(c.args); got != c.want {
					t.Errorf("ConfigPathFromArgs(%v) = %q, want %q", c.args, got, c.want)
				}
			}
		}},
		// The listener is guarded against slow-header and idle-connection
		// pinning: a client that opens a socket and never finishes its
		// request headers must not hold a connection slot forever.
		// ReadTimeout and WriteTimeout stay zero on purpose — status
		// long-polls legitimately hold a response open for minutes.
		{"http-server-connection-bounds", func(t *testing.T) {
			srv := NewHTTPServer(http.NotFoundHandler())
			if srv.ReadHeaderTimeout <= 0 {
				t.Fatal("ReadHeaderTimeout unset: a stalled client can pin a connection through header read forever")
			}
			if srv.IdleTimeout <= 0 {
				t.Fatal("IdleTimeout unset: idle keep-alive connections are never reclaimed")
			}
			if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
				t.Fatalf("ReadTimeout/WriteTimeout set (%v/%v): long-poll status requests would be cut off",
					srv.ReadTimeout, srv.WriteTimeout)
			}
		}},
		{"listen-error-skips-drain", func(t *testing.T) {
			err := Serve("127.0.0.1:99999", http.NotFoundHandler(), func(net.Addr) {
				t.Error("listening reported for a listener that failed")
			}, func(os.Signal) error {
				t.Error("drain ran for a daemon that never served")
				return nil
			})
			if err == nil {
				t.Fatal("Serve on an unusable address returned nil")
			}
		}},
	} {
		t.Run(c.name, c.check)
	}
}
