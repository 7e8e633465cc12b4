package taskserve

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"taskgrain/internal/config"
	"taskgrain/internal/journal"
)

// alwaysConfig is journalConfig under the always policy with a flusher that
// never fires inside a test, so a delta becomes durable only by riding a
// later durable append's commit.
func alwaysConfig(t *testing.T) config.Server {
	t.Helper()
	cfg := journalConfig(t)
	cfg.JournalFsync = string(journal.FsyncAlways)
	cfg.JournalFsyncInterval = time.Hour
	return cfg
}

// powerLoss models a power cut after a Crash: every record past the last LSN
// an fsync covered is cut from the journal, as the page cache holding it
// would be. A sealed segment is fsynced before its successor is created, so
// only the tail can hold records past durable.
func powerLoss(t *testing.T, dir string, durable journal.LSN) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		var first uint64
		if _, err := fmt.Sscanf(filepath.Base(seg), "wal-%d.log", &first); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		for lsn := journal.LSN(first); lsn <= durable && off < len(raw); lsn++ {
			_, n, err := journal.DecodeRecord(raw[off:])
			if err != nil {
				t.Fatalf("%s: record %d: %v", seg, lsn, err)
			}
			off += n
		}
		if err := os.Truncate(seg, int64(off)); err != nil {
			t.Fatal(err)
		}
	}
}

// waitLastLSN polls until the journal has appended lsn.
func waitLastLSN(t *testing.T, s *Server, lsn journal.LSN) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.wal.LastLSN() < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("journal stuck at LSN %d, want %d", s.wal.LastLSN(), lsn)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJournalLostDeltaOutcomes: start and term records are deltas, so a
// power loss can take them. A job whose deltas were lost replays from its
// admit record and is requeued, or failed lost-on-crash under the fail
// policy; a job whose deltas rode a later commit recovers terminal and never
// runs twice; an admit acknowledged under always is never lost.
func TestJournalLostDeltaOutcomes(t *testing.T) {
	for _, policy := range config.JournalRecoveryPolicies {
		t.Run(policy, func(t *testing.T) {
			cfg := alwaysConfig(t)
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a.Start()
			// LSNs: 1 admit A, 2 start A, 3 term A, 4 admit B (whose commit
			// covers A's deltas), 5 start B, 6 term B.
			ja, se := a.Submit(JobSpec{Kind: KindFibonacci, Size: 10})
			if se != nil {
				t.Fatalf("submit A shed: %v", se.reason)
			}
			waitTerminal(t, a, ja.ID())
			waitLastLSN(t, a, 3)
			jb, se := a.Submit(JobSpec{Kind: KindFibonacci, Size: 10})
			if se != nil {
				t.Fatalf("submit B shed: %v", se.reason)
			}
			waitTerminal(t, a, jb.ID())
			waitLastLSN(t, a, 6)
			a.Crash()
			if got := a.wal.DurableLSN(); got != 4 {
				t.Fatalf("DurableLSN = %d at the crash, want 4: B's admit commit and nothing after", got)
			}
			powerLoss(t, cfg.JournalDir, a.wal.DurableLSN())

			cfg.JournalRecovery = policy
			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			ra, ok := b.Job(ja.ID())
			if !ok || ra.State() != JobDone {
				t.Fatalf("job A (terminal record durable) recovered ok=%v as %v, want done", ok, ra)
			}
			rb, ok := b.Job(jb.ID())
			if !ok {
				t.Fatalf("job B was acknowledged under always but is unknown after the power loss")
			}
			if policy == config.JournalRecoveryFail {
				if rb.State() != JobFailed || rb.View().Error != "lost-on-crash" {
					t.Fatalf("job B recovered as %s (%q), want failed lost-on-crash", rb.State(), rb.View().Error)
				}
				return
			}
			if rb.State() != JobQueued {
				t.Fatalf("job B recovered as %s, want queued (requeued from its admit record)", rb.State())
			}
			b.Start()
			if st := waitTerminal(t, b, jb.ID()); st != JobDone {
				t.Fatalf("requeued job B ended %s, want done", st)
			}
		})
	}
}

// TestBatchShedSuffixDropsAreOneDurableAppend: the drop records rescinding a
// partially shed batch go out as one durable append — one fsync — before
// the 429s, so after a power loss with no Sync the admitted prefix is
// recovered and no rescinded id is.
func TestBatchShedSuffixDropsAreOneDurableAppend(t *testing.T) {
	cfg := alwaysConfig(t)
	cfg.MaxQueuedJobs = 4
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The runners stay unstarted, so the queue's 4 slots are the exact
	// capacity.
	specs := make([]JobSpec, 7)
	for i := range specs {
		specs[i] = JobSpec{Kind: KindFibonacci, Size: 10}
	}
	before := a.wal.Fsyncs()
	res := a.SubmitBatch(specs)
	if got := a.wal.Fsyncs() - before; got != 2 {
		t.Fatalf("partially shed batch took %d fsyncs, want 2: one for the admits, one for the drop set", got)
	}
	admitted := make(map[string]bool)
	var shed []string
	for i, r := range res {
		switch {
		case i < 4 && r.job != nil:
			admitted[r.job.ID()] = true
		case i >= 4 && r.shed != nil && r.shed.status == http.StatusTooManyRequests:
			shed = append(shed, fmt.Sprintf("j-%d", i+1))
		default:
			t.Fatalf("item %d = %+v, want a 4-job prefix and a 429 suffix", i, r)
		}
	}
	a.Crash()
	powerLoss(t, cfg.JournalDir, a.wal.DurableLSN())

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for id := range admitted {
		if _, ok := b.Job(id); !ok {
			t.Fatalf("admitted job %s lost across the power loss", id)
		}
	}
	for _, id := range shed {
		if _, ok := b.Job(id); ok {
			t.Fatalf("rescinded job %s (429) was resurrected", id)
		}
	}
	if got := len(b.Jobs()); got != len(admitted) {
		t.Fatalf("recovered %d jobs, want exactly the %d-job prefix", got, len(admitted))
	}
}
