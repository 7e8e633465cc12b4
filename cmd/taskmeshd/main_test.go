package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"taskgrain/internal/config"
	"taskgrain/internal/taskserve"
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

// startNode runs one in-process taskgraind-equivalent backend and returns its
// base URL.
func startNode(t *testing.T) string {
	t.Helper()
	cfg := config.DefaultServer()
	cfg.Workers = 2
	cfg.TelemetryInterval = 5 * time.Millisecond
	s, err := taskserve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL
}

// startGateway runs taskmeshd on an ephemeral port and returns its base URL
// plus the exit-code channel.
func startGateway(t *testing.T, args []string, stdout *syncBuffer, stderr io.Writer) (string, chan int) {
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
			t.Fatalf("gateway exited early with %d: %s", code, stdout.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatalf("gateway never reported its address: %s", stdout.String())
	return "", nil
}

func TestMeshDaemonRoutesJobs(t *testing.T) {
	node := startNode(t)

	var stdout syncBuffer
	var stderr bytes.Buffer
	base, exit := startGateway(t,
		[]string{"-nodes", node, "-heartbeat-interval", "20ms"}, &stdout, &stderr)

	// Submit through the gateway and long-poll to completion; the view must
	// carry the mesh placement block and the mesh-scoped ID.
	body := []byte(`{"kind":"fibonacci","size":20,"grain":10}`)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		ID   string `json:"id"`
		Mesh *struct {
			Node string `json:"node"`
		} `json:"mesh"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if !strings.HasPrefix(view.ID, "m-") || view.Mesh == nil || view.Mesh.Node == "" {
		t.Fatalf("submit view missing mesh identity: %+v", view)
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
		t.Fatalf("job did not complete through the mesh: %+v", done)
	}

	// The node view and the introspect surface are mounted.
	resp, err = http.Get(base + "/v1/nodes")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), `"state":"healthy"`) {
		t.Fatalf("/v1/nodes shows no healthy node: %s", raw)
	}
	resp, err = http.Get(base + "/debug/counters?prefix=/mesh")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"/mesh/jobs/submitted", "/routed-jobs"} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("/debug/counters missing %q: %s", want, raw)
		}
	}

	// SIGTERM → clean exit with flushed routing counters.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("gateway did not exit after SIGTERM: %s", stdout.String())
	}
	out := stdout.String()
	for _, want := range []string{"final counters:", "/mesh/jobs/submitted", "taskmeshd: stopped"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gateway output missing %q:\n%s", want, out)
		}
	}
}

func TestMeshDaemonBadFlags(t *testing.T) {
	var stdout syncBuffer
	var stderr bytes.Buffer
	if code := run([]string{"-down-after", "potato"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag exit code %d, want 2", code)
	}
	if code := run([]string{"-config", "/does/not/exist.json"}, &stdout, &stderr); code != 1 {
		t.Fatalf("missing config exit code %d, want 1", code)
	}
	// No -nodes: the configuration is invalid before any listener opens.
	if code := run(nil, &stdout, &stderr); code != 1 {
		t.Fatalf("missing nodes exit code %d, want 1", code)
	}
	if code := run([]string{"-nodes", "127.0.0.1:1", "-route-policy", "fastest-guess"}, &stdout, &stderr); code != 1 {
		t.Fatalf("bad policy exit code %d, want 1", code)
	}
}

// TestMeshConfigPathFromArgs checks that -config reaches the gateway's file
// loader before flag parsing: each case names a missing file, so the load
// fails with that path and exit code 1.
func TestMeshConfigPathFromArgs(t *testing.T) {
	path := t.TempDir() + "/mesh.json"
	for _, args := range [][]string{
		{"-config", path},
		{"--config=" + path},
		// The unusable -addr ends the run even if the file were skipped.
		{"-nodes", "127.0.0.1:1", "-addr", "127.0.0.1:99999", "-config", path},
	} {
		var stdout syncBuffer
		var stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Fatalf("run(%v) exit code %d, want 1", args, code)
		}
		if !strings.Contains(stderr.String(), path) {
			t.Errorf("run(%v) did not load %s: %s", args, path, stderr.String())
		}
	}
	// Without -config no file is read; the gateway fails on its missing
	// -nodes instead.
	var stdout syncBuffer
	var stderr bytes.Buffer
	if code := run([]string{"-addr", ":0"}, &stdout, &stderr); code != 1 {
		t.Fatalf("no -config exit code %d, want 1", code)
	}
	if strings.Contains(stderr.String(), "config: open") {
		t.Errorf("run without -config loaded a file: %s", stderr.String())
	}
}
