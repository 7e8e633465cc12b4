package config

import (
	"flag"
	"strings"
	"testing"
	"time"
)

func validMesh() Mesh {
	m := DefaultMesh()
	m.Nodes = []string{"http://127.0.0.1:8081", "http://127.0.0.1:8082"}
	return m
}

func TestMeshDefaultsNeedNodes(t *testing.T) {
	m := DefaultMesh()
	if err := m.Validate(); err == nil {
		t.Fatal("defaults with no seed nodes should not validate")
	}
	m = validMesh()
	if err := m.Validate(); err != nil {
		t.Fatalf("valid mesh rejected: %v", err)
	}
}

func TestMeshValidateRejections(t *testing.T) {
	cases := []func(*Mesh){
		func(m *Mesh) { m.Addr = "" },
		func(m *Mesh) { m.Nodes = nil },
		func(m *Mesh) { m.Nodes = []string{" "} },
		func(m *Mesh) { m.HeartbeatInterval = 0 },
		func(m *Mesh) { m.DownAfter = 0 },
		func(m *Mesh) { m.RoutePolicy = "fastest-wins" },
		func(m *Mesh) { m.MaxSubmitAttempts = 0 },
		func(m *Mesh) { m.MaxBatchJobs = 0 },
		func(m *Mesh) { m.MaxBackoff = 0 },
		func(m *Mesh) { m.HedgeDelay = -time.Second },
		func(m *Mesh) { m.FlowFloor = -1 },
		func(m *Mesh) { m.RequestTimeout = 0 },
		func(m *Mesh) { m.JournalFsync = "sometimes" },
		func(m *Mesh) { m.JournalSegmentBytes = 100 },
		func(m *Mesh) { m.JournalFsyncInterval = -time.Millisecond },
	}
	for i, mutate := range cases {
		m := validMesh()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid mesh validated: %+v", i, m)
		}
	}
}

func TestMeshApplyEnv(t *testing.T) {
	env := map[string]string{
		"TASKMESHD_ADDR":               ":9999",
		"TASKMESHD_NODES":              "http://a:1, http://b:2 ,",
		"TASKMESHD_ROUTE_POLICY":       MeshPolicyLeastInflight,
		"TASKMESHD_DOWN_AFTER":         "5",
		"TASKMESHD_MAX_BATCH_JOBS":     "17",
		"TASKMESHD_HEARTBEAT_INTERVAL": "100ms",
		"TASKMESHD_MAX_BACKOFF":        "2s",
		"TASKMESHD_HEDGE_DELAY":        "250ms",
		"TASKMESHD_REQUEST_TIMEOUT":    "9s",
		"TASKMESHD_FLOW_FLOOR":         "4",
	}
	m := DefaultMesh()
	if err := m.ApplyEnv(func(k string) (string, bool) { v, ok := env[k]; return v, ok }); err != nil {
		t.Fatal(err)
	}
	if m.Addr != ":9999" || m.RoutePolicy != MeshPolicyLeastInflight || m.DownAfter != 5 || m.MaxBatchJobs != 17 {
		t.Fatalf("env not applied: %+v", m)
	}
	if len(m.Nodes) != 2 || m.Nodes[0] != "http://a:1" || m.Nodes[1] != "http://b:2" {
		t.Fatalf("TASKMESHD_NODES parsed wrong: %v", m.Nodes)
	}
	if m.HeartbeatInterval != 100*time.Millisecond || m.MaxBackoff != 2*time.Second ||
		m.HedgeDelay != 250*time.Millisecond || m.RequestTimeout != 9*time.Second || m.FlowFloor != 4 {
		t.Fatalf("durations/floats not applied: %+v", m)
	}

	if err := m.ApplyEnv(func(k string) (string, bool) {
		if k == "TASKMESHD_HEARTBEAT_INTERVAL" {
			return "potato", true
		}
		return "", false
	}); err == nil {
		t.Fatal("bad duration env silently accepted")
	}
}

func TestMeshJournalKnobs(t *testing.T) {
	m := validMesh()
	if m.JournalDir != "" {
		t.Fatalf("mesh journal enabled by default (dir %q)", m.JournalDir)
	}
	env := map[string]string{
		"TASKMESHD_JOURNAL_DIR":            "/tmp/mesh-wal",
		"TASKMESHD_JOURNAL_FSYNC":          "none",
		"TASKMESHD_JOURNAL_SEGMENT_BYTES":  "131072",
		"TASKMESHD_JOURNAL_FSYNC_INTERVAL": "7ms",
	}
	if err := m.ApplyEnv(func(k string) (string, bool) { v, ok := env[k]; return v, ok }); err != nil {
		t.Fatal(err)
	}
	if m.JournalDir != "/tmp/mesh-wal" || m.JournalFsync != "none" ||
		m.JournalSegmentBytes != 131072 || m.JournalFsyncInterval != 7*time.Millisecond {
		t.Fatalf("journal env overlay not applied: %+v", m)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	m.Flags(fs)
	if err := fs.Parse([]string{"-journal-dir", "/tmp/mesh-wal2", "-journal-fsync", "always"}); err != nil {
		t.Fatal(err)
	}
	if m.JournalDir != "/tmp/mesh-wal2" || m.JournalFsync != "always" {
		t.Fatalf("journal flags not bound: %+v", m)
	}
}

func TestMeshFlags(t *testing.T) {
	m := DefaultMesh()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	m.Flags(fs)
	err := fs.Parse([]string{
		"-nodes", "http://x:1,http://y:2,http://z:3",
		"-route-policy", MeshPolicyRoundRobin,
		"-heartbeat-interval", "50ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Nodes) != 3 || m.Nodes[2] != "http://z:3" {
		t.Fatalf("-nodes parsed wrong: %v", m.Nodes)
	}
	if m.RoutePolicy != MeshPolicyRoundRobin || m.HeartbeatInterval != 50*time.Millisecond {
		t.Fatalf("flags not applied: %+v", m)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("flag-built mesh rejected: %v", err)
	}
}

func TestLoadMesh(t *testing.T) {
	in := `{"addr":":7000","nodes":["http://n1:1","http://n2:2"],"route_policy":"least-inflight"}`
	m, err := LoadMesh(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Addr != ":7000" || len(m.Nodes) != 2 || m.RoutePolicy != MeshPolicyLeastInflight {
		t.Fatalf("loaded mesh wrong: %+v", m)
	}
	// Defaults fill the unset fields.
	if m.HeartbeatInterval != DefaultMesh().HeartbeatInterval {
		t.Fatalf("defaults not layered under file: %+v", m)
	}
	if _, err := LoadMesh(strings.NewReader(`{"no_such_field":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := LoadMesh(strings.NewReader(`{"addr":":7000"}`)); err == nil {
		t.Fatal("nodeless mesh accepted")
	}
}
