package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing daemon output.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// startDaemon runs the daemon on an ephemeral port and returns its base URL
// and a channel carrying the exit code.
func startDaemon(t *testing.T, args []string, stdout *syncBuffer, stderr io.Writer) (string, chan int) {
	t.Helper()
	exit := make(chan int, 1)
	go func() {
		exit <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), stdout, stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenRe.FindStringSubmatch(stdout.String()); m != nil {
			return "http://" + m[1], exit
		}
		select {
		case code := <-exit:
			t.Fatalf("daemon exited early with %d: %s", code, stdout.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatalf("daemon never reported its address: %s", stdout.String())
	return "", nil
}

func TestDaemonServesAndDrainsOnSIGTERM(t *testing.T) {
	var stdout syncBuffer
	var stderr bytes.Buffer
	base, exit := startDaemon(t, []string{"-workers", "2", "-telemetry-interval", "5ms"}, &stdout, &stderr)

	// Submit a job and watch it complete through the HTTP API.
	body := []byte(`{"kind":"fibonacci","size":20,"grain":10}`)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/jobs/" + view.ID + "?wait=true&timeout=30s")
	if err != nil {
		t.Fatal(err)
	}
	var done struct {
		State  string `json:"state"`
		Result *struct {
			Checksum float64 `json:"checksum"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&done); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if done.State != "done" || done.Result == nil || done.Result.Checksum != 6765 {
		t.Fatalf("job did not complete correctly: %+v", done)
	}

	// The introspect surface is mounted.
	resp, err = http.Get(base + "/debug/counters?prefix=/server")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "/server/jobs/submitted") {
		t.Fatalf("/debug/counters missing server counters: %s", raw)
	}

	// SIGTERM → graceful drain → exit 0 with flushed counters.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM: %s", stdout.String())
	}
	out := stdout.String()
	for _, want := range []string{"draining", "final counters:", "/server/jobs/completed", "drained cleanly"} {
		if !strings.Contains(out, want) {
			t.Fatalf("daemon output missing %q:\n%s", want, out)
		}
	}
}

func TestDaemonConfigPrecedence(t *testing.T) {
	// File sets workers=1 and queue=11; env overrides workers to 3; a flag
	// overrides the queue bound to 13. Expect env > file and flag > file.
	dir := t.TempDir()
	path := filepath.Join(dir, "server.json")
	file := `{"addr":"127.0.0.1:1","max_queued_jobs":11,"workers":1}`
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TASKGRAIND_WORKERS", "3")

	var stdout syncBuffer
	var stderr bytes.Buffer
	// -addr from startDaemon overrides the file's unusable 127.0.0.1:1.
	base, exit := startDaemon(t, []string{"-config", path, "-max-queued-jobs", "13"}, &stdout, &stderr)

	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Workers int `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Workers != 3 {
		t.Fatalf("env TASKGRAIND_WORKERS=3 did not beat file workers=1: got %d", stats.Workers)
	}
	if !strings.Contains(stdout.String(), "queue 13") {
		t.Fatalf("flag -max-queued-jobs 13 not applied: %s", stdout.String())
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

func TestDaemonBadFlags(t *testing.T) {
	var stdout syncBuffer
	var stderr bytes.Buffer
	if code := run([]string{"-workers", "potato"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag exit code %d, want 2", code)
	}
	if code := run([]string{"-config", "/does/not/exist.json"}, &stdout, &stderr); code != 1 {
		t.Fatalf("missing config exit code %d, want 1", code)
	}
	if code := run([]string{"-max-queued-jobs", "0"}, &stdout, &stderr); code != 1 {
		t.Fatalf("invalid config exit code %d, want 1", code)
	}
}

// TestConfigPathFromArgs checks that every spelling of -config reaches the
// daemon's file loader before flag parsing: each names a missing file, so the
// load fails with that path and exit code 1.
func TestConfigPathFromArgs(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-config", "a.json"}, "a.json"},
		{[]string{"--config", "b.json"}, "b.json"},
		{[]string{"-config=c.json"}, "c.json"},
		{[]string{"--config=d.json"}, "d.json"},
		{[]string{"-workers", "2", "-config", "e.json"}, "e.json"},
	} {
		// The unusable -addr ends the run even if the file were skipped.
		args := []string{"-addr", "127.0.0.1:99999"}
		for _, a := range c.args {
			args = append(args, strings.Replace(a, c.want, filepath.Join(dir, c.want), 1))
		}
		var stdout syncBuffer
		var stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Fatalf("run(%v) exit code %d, want 1", args, code)
		}
		if !strings.Contains(stderr.String(), filepath.Join(dir, c.want)) {
			t.Errorf("run(%v) did not load %s: %s", args, c.want, stderr.String())
		}
	}
	// A trailing -config has no value: nothing is loaded and flag parsing
	// rejects it.
	var stdout syncBuffer
	var stderr bytes.Buffer
	if code := run([]string{"-config"}, &stdout, &stderr); code != 2 {
		t.Fatalf("valueless -config exit code %d, want 2", code)
	}
	if strings.Contains(stderr.String(), "config: open") {
		t.Errorf("valueless -config loaded a file: %s", stderr.String())
	}
}
