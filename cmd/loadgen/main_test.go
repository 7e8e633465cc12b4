package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"taskgrain/internal/chaos"
	"taskgrain/internal/config"
	"taskgrain/internal/taskserve"
)

// newBackend starts an in-process taskserve server for the client to drive.
func newBackend(t *testing.T, mutate func(*config.Server)) *httptest.Server {
	t.Helper()
	cfg := config.DefaultServer()
	cfg.Workers = 2
	cfg.TelemetryInterval = 5 * time.Millisecond
	cfg.ShedMinTasks = 1e12 // keep admission deterministic under test load
	if mutate != nil {
		mutate(&cfg)
	}
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
	return ts
}

func TestLoadgenFixedGrain(t *testing.T) {
	ts := newBackend(t, nil)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", ts.URL,
		"-jobs", "10", "-concurrency", "3",
		"-kind", "fibonacci", "-size", "22", "-grain", "12",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "10 done, 0 failed") {
		t.Fatalf("not all jobs completed:\n%s", out)
	}
	if !strings.Contains(out, "throughput") || !strings.Contains(out, "latency") {
		t.Fatalf("report missing throughput/latency:\n%s", out)
	}
	if !strings.Contains(out, "10×12") {
		t.Fatalf("report missing fixed grain 12:\n%s", out)
	}
}

func TestLoadgenAdaptiveGrainAndSheds(t *testing.T) {
	ts := newBackend(t, func(cfg *config.Server) {
		cfg.MaxQueuedJobs = 2
		cfg.MaxConcurrentJobs = 1
		cfg.RetryAfter = time.Second
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", ts.URL,
		"-jobs", "12", "-concurrency", "6",
		"-kind", "stencil1d", "-size", "50000", "-steps", "2",
		"-max-backoff", "2ms",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "12 done, 0 failed") {
		t.Fatalf("not all jobs completed:\n%s", out)
	}
	// Adaptive mode: the grain column must report server-chosen values and
	// the footer must carry the server's live grain table.
	if !strings.Contains(out, "grains") || strings.Contains(out, "×0 ") {
		t.Fatalf("adaptive grains not reported:\n%s", out)
	}
	if !strings.Contains(out, "server adaptive grains:") || !strings.Contains(out, "stencil1d=") {
		t.Fatalf("server stats footer missing:\n%s", out)
	}
}

func TestLoadgenTaskbench(t *testing.T) {
	ts := newBackend(t, nil)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", ts.URL,
		"-jobs", "4", "-concurrency", "2",
		"-kind", "taskbench", "-size", "8", "-steps", "3",
		"-pattern", "fft", "-kernel", "busywork", "-grain", "5000", "-metg",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "4 done, 0 failed") {
		t.Fatalf("not all taskbench jobs completed:\n%s", out)
	}
	// The METG line appears only when jobs found one; either way the stats
	// footer must show taskbench's adaptive controller.
	if !strings.Contains(out, "taskbench=") {
		t.Fatalf("server stats footer missing taskbench grain:\n%s", out)
	}
}

// TestLoadgenAllShedReportIsEmptySafe: a server that sheds every submission
// yields zero latency samples; the report must print NaN-free zeros instead
// of panicking (regression for percentile-of-empty).
func TestLoadgenAllShedReportIsEmptySafe(t *testing.T) {
	shedAll := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "shed", http.StatusTooManyRequests)
	}))
	defer shedAll.Close()

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", shedAll.URL,
		"-jobs", "3", "-concurrency", "2",
		"-max-backoff", "1ms", "-max-retries", "2",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("all-shed run exit %d, want 1\nstdout: %s", code, stdout.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "3 errors") {
		t.Fatalf("shed-out jobs not counted as errors:\n%s", out)
	}
	if !strings.Contains(out, "latency    p50 0.0 ms") || !strings.Contains(out, "(0 samples)") {
		t.Fatalf("empty latency line not zero-safe:\n%s", out)
	}
	if strings.Contains(out, "NaN") {
		t.Fatalf("report leaked NaN:\n%s", out)
	}
}

// TestLoadgenSubmitOnly: -submit-only stops at admission on both submit
// paths — the report switches to admitted counts, submit jobs/s, and per-item
// ack percentiles, and never prints the submit→terminal figures (the jobs may
// well still be queued when the run exits).
func TestLoadgenSubmitOnly(t *testing.T) {
	ts := newBackend(t, func(cfg *config.Server) {
		cfg.MaxBatchJobs = 64
		cfg.MaxQueuedJobs = 256
	})
	for _, batch := range []string{"1", "8"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{
			"-addr", ts.URL,
			"-jobs", "16", "-concurrency", "4", "-batch", batch,
			"-kind", "fibonacci", "-size", "10",
			"-submit-only",
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("batch=%s exit %d\nstdout: %s\nstderr: %s",
				batch, code, stdout.String(), stderr.String())
		}
		out := stdout.String()
		if !strings.Contains(out, "16 admitted") || !strings.Contains(out, "(submit-only)") {
			t.Fatalf("batch=%s report missing admitted count:\n%s", batch, out)
		}
		if !strings.Contains(out, "jobs/s admitted") || !strings.Contains(out, "ack        p50") {
			t.Fatalf("batch=%s report missing admission figures:\n%s", batch, out)
		}
		if !strings.Contains(out, "(16 per-item admission acks)") {
			t.Fatalf("batch=%s ack percentiles must weigh each item once:\n%s", batch, out)
		}
		if strings.Contains(out, "throughput ") || strings.Contains(out, "latency    p50") {
			t.Fatalf("batch=%s submit-only run leaked submit→terminal figures:\n%s", batch, out)
		}
		if batch != "1" && !strings.Contains(out, "batch-rtt  p50") {
			t.Fatalf("batch=%s report lost the per-batch round-trips:\n%s", batch, out)
		}
	}
}

// TestLoadgenMeshTargets: -mesh spreads jobs round-robin across several
// backends; every target must see submissions and every job must complete.
func TestLoadgenMeshTargets(t *testing.T) {
	a := newBackend(t, nil)
	b := newBackend(t, nil)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-mesh", a.URL + "," + b.URL,
		"-jobs", "8", "-concurrency", "4",
		"-kind", "fibonacci", "-size", "20", "-grain", "10",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "8 done, 0 failed") {
		t.Fatalf("not all jobs completed across the mesh targets:\n%s", out)
	}
	// Per-target stats footers replace the single-server one, and round-robin
	// must have reached both backends.
	for _, target := range []string{a.URL, b.URL} {
		if !strings.Contains(out, "adaptive grains "+target) {
			t.Fatalf("missing per-target stats footer for %s:\n%s", target, out)
		}
	}
	// Multi-target runs add a latency/shed breakdown per target; with 8 jobs
	// round-robined over 2 backends each line reports 4 terminal jobs.
	for _, target := range []string{a.URL, b.URL} {
		if !strings.Contains(out, "target     "+target+": p50 ") {
			t.Fatalf("missing per-target breakdown for %s:\n%s", target, out)
		}
		if !strings.Contains(out, "sheds 0 (4 terminal)") {
			t.Fatalf("per-target breakdown miscounted:\n%s", out)
		}
	}
	for _, ts := range []*httptest.Server{a, b} {
		resp, err := http.Get(ts.URL + "/debug/counters?prefix=/server/jobs/submitted")
		if err != nil {
			t.Fatal(err)
		}
		var snap map[string]float64
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if snap["/server/jobs/submitted"] != 4 {
			t.Fatalf("round-robin skew: %s saw %v submissions, want 4",
				ts.URL, snap["/server/jobs/submitted"])
		}
	}
}

// TestLoadgenTruncatedPollCountsAsFailure: a status poll that comes back 200
// with a garbled (truncated) JSON body is a terminal failure for the report —
// the job lands in the failed count and the latency breakdown — not a
// transport error that silently drops it and fails the whole run (regression
// for decode errors on 200 being lumped into the errors bucket).
func TestLoadgenTruncatedPollCountsAsFailure(t *testing.T) {
	cfg := config.DefaultServer()
	cfg.Workers = 2
	cfg.TelemetryInterval = 5 * time.Millisecond
	cfg.ShedMinTasks = 1e12
	s, err := taskserve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() { s.Close() })
	// Truncate every status GET; submissions and the stats footer pass clean.
	proxy := chaos.NewProxy(s.Handler(), chaos.ProxyConfig{
		TruncateProb: 1,
		Match: func(r *http.Request) bool {
			return r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/")
		},
	})
	front := httptest.NewServer(proxy)
	defer front.Close()

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", front.URL,
		"-jobs", "3", "-concurrency", "2",
		"-kind", "fibonacci", "-size", "10", "-grain", "10",
	}, &stdout, &stderr)
	out := stdout.String()
	if code != 0 {
		t.Fatalf("garbled polls exit %d, want 0 (failures are terminal, not transport errors)\nstdout: %s\nstderr: %s",
			code, out, stderr.String())
	}
	if !strings.Contains(out, "0 done, 3 failed, 0 cancelled, 0 errors") {
		t.Fatalf("truncated polls not counted as terminal failures:\n%s", out)
	}
	if !strings.Contains(out, "(3 samples)") {
		t.Fatalf("failed jobs missing from the latency breakdown:\n%s", out)
	}
	if got := proxy.Injected()["truncations"]; got < 3 {
		t.Fatalf("proxy truncated %d responses, want >= 3", got)
	}
}

func TestLoadgenBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-jobs", "potato"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag exit %d, want 2", code)
	}
	if code := run([]string{"-jobs", "0"}, &stdout, &stderr); code != 1 {
		t.Fatalf("zero jobs exit %d, want 1", code)
	}
}

func TestLoadgenUnreachableServer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", "127.0.0.1:1", "-jobs", "2", "-concurrency", "1",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("unreachable server exit %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "2 errors") {
		t.Fatalf("errors not counted:\n%s", stdout.String())
	}
}

// TestLoadgenIDLogAndExpectRecovered drives the full recovery-assertion
// workflow: a journaled server takes a -id-log run, crashes without draining,
// and a restarted process over the same journal dir must satisfy a
// -expect-recovered pass over the logged IDs.
func TestLoadgenIDLogAndExpectRecovered(t *testing.T) {
	journalDir := t.TempDir()
	mutate := func(cfg *config.Server) {
		cfg.JournalDir = journalDir
		cfg.JournalFsyncInterval = time.Millisecond
	}
	cfg := config.DefaultServer()
	cfg.Workers = 2
	cfg.TelemetryInterval = 5 * time.Millisecond
	cfg.ShedMinTasks = 1e12
	mutate(&cfg)
	a, err := taskserve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	frontA := httptest.NewServer(a.Handler())

	idFile := t.TempDir() + "/ids.log"
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", frontA.URL, "-id-log", idFile,
		"-jobs", "8", "-concurrency", "4",
		"-kind", "fibonacci", "-size", "14",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("id-log run exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	frontA.Close()
	a.Crash()

	b, err := taskserve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	frontB := httptest.NewServer(b.Handler())
	t.Cleanup(func() {
		frontB.Close()
		b.Close()
	})
	stdout.Reset()
	stderr.Reset()
	code = run([]string{
		"-addr", frontB.URL, "-expect-recovered", idFile, "-concurrency", "4",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("expect-recovered exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "recovered  8/8 jobs reached a terminal state") {
		t.Fatalf("recovery summary missing:\n%s", stdout.String())
	}
}

// TestLoadgenExpectRecoveredLostJob: an ID the restarted server does not know
// fails the assertion run and is named on stderr.
func TestLoadgenExpectRecoveredLostJob(t *testing.T) {
	ts := newBackend(t, nil)
	idFile := t.TempDir() + "/ids.log"
	if err := os.WriteFile(idFile, []byte("j-424242\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", ts.URL, "-expect-recovered", idFile, "-concurrency", "1",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("lost-job assertion exit %d, want 1\nstdout: %s", code, stdout.String())
	}
	if !strings.Contains(stderr.String(), "lost across restart: j-424242 (404 not found)") {
		t.Fatalf("lost job not named:\n%s", stderr.String())
	}
}
