package journal

import (
	"sync"
	"sync/atomic"
	"testing"

	"taskgrain/internal/counters"
)

// setRec and setSnap are a minimal tier: every record adds one id to a set,
// and a snapshot is the whole set.
type setRec struct {
	ID int `json:"id"`
}

type setSnap struct {
	IDs []int `json:"ids"`
}

// TestLedgerSnapshotIsStateAtLSN checks the ledger's compaction invariant: a
// snapshot is exactly the tier's state at its LSN. Appenders change a shared
// set and then append the change while a compactor snapshots back to back;
// after a crash, the snapshot plus the records after its LSN must rebuild
// exactly the set of appends that returned nil — none lost to a snapshot
// stamped past a change it did not capture.
func TestLedgerSnapshotIsStateAtLSN(t *testing.T) {
	const appenders, perAppender = 4, 300
	dir := t.TempDir()
	var mu sync.Mutex
	set := make(map[int]bool)
	l, err := OpenLedger(dir, Options{Fsync: FsyncNone, SegmentBytes: 4096}, counters.NewRegistry(),
		Tier[setRec, setSnap]{
			Name:   "set",
			Replay: func(setSnap, []setRec) (int, error) { return 0, nil },
			Capture: func() setSnap {
				mu.Lock()
				defer mu.Unlock()
				snap := setSnap{IDs: make([]int, 0, len(set))}
				for id := range set {
					snap.IDs = append(snap.IDs, id)
				}
				return snap
			},
		})
	if err != nil {
		t.Fatal(err)
	}

	acked := make([][]int, appenders)
	var appended atomic.Int64
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				id := a*perAppender + i
				mu.Lock()
				set[id] = true
				mu.Unlock()
				if err := l.AppendBatch([]setRec{{ID: id}}); err != nil {
					t.Errorf("append %d: %v", id, err)
					return
				}
				acked[a] = append(acked[a], id)
				appended.Add(1)
			}
		}(a)
	}
	// Compactions stop halfway, so the last one overlaps live appenders and
	// nothing after it re-snapshots a change it missed.
	for appended.Load() < appenders*perAppender/2 {
		l.Compact()
	}
	wg.Wait()
	if l.SnapshotLSN() == 0 {
		t.Fatal("no compaction ran")
	}
	l.Kill()

	rebuilt := make(map[int]bool)
	l2, err := OpenLedger(dir, Options{Fsync: FsyncNone}, counters.NewRegistry(), Tier[setRec, setSnap]{
		Name: "set",
		Replay: func(snap setSnap, recs []setRec) (int, error) {
			for _, id := range snap.IDs {
				rebuilt[id] = true
			}
			for _, r := range recs {
				rebuilt[r.ID] = true
			}
			return len(rebuilt), nil
		},
		Capture: func() setSnap { return setSnap{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	want := 0
	for _, ids := range acked {
		for _, id := range ids {
			want++
			if !rebuilt[id] {
				t.Fatalf("append of %d returned nil but the recovered journal lacks it", id)
			}
		}
	}
	if len(rebuilt) != want || l2.Recovered() != int64(want) {
		t.Fatalf("rebuilt %d ids (recovered counter %d), want exactly the %d acknowledged appends",
			len(rebuilt), l2.Recovered(), want)
	}
}
