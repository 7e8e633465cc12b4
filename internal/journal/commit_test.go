package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskgrain/internal/counters"
)

// setSyncFile swaps the journal's fsync for a test hook.
func setSyncFile(j *Journal, hook func(*os.File) error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.syncFile = hook
}

// TestRotationFailureKeepsRecordAndTail: a rotation that fails after the
// frames are written must not fail the append — recovery replays the record,
// so a caller told "error" would refuse work a restart then runs — and must
// leave the tail open, so later appends succeed and retry the rotation.
func TestRotationFailureKeepsRecordAndTail(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: 64})
	blocker := filepath.Join(dir, segmentName(2))
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{'r'}, 100)
	lsn, err := j.Append(rec)
	if err != nil || lsn != 1 {
		t.Fatalf("append whose rotation failed: lsn %d err %v, want 1 nil (the record is written)", lsn, err)
	}
	if got := j.DurableLSN(); got != 1 {
		t.Fatalf("DurableLSN = %d after a durable append, want 1", got)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	lsn, err = j.Append(rec)
	if err != nil || lsn != 2 {
		t.Fatalf("append after a failed rotation: lsn %d err %v, want 2 nil (the tail must stay open)", lsn, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 2 || got.Records[0].LSN != 1 || got.Records[1].LSN != 2 {
		t.Fatalf("recovered %+v, want LSNs 1 and 2", got.Records)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 2 || filepath.Base(segs[1]) != segmentName(3) {
		t.Fatalf("segments %v, want the first tail and a retried rotation to %s", segs, segmentName(3))
	}
}

// TestRotationSealFaultKeepsTail: a rotation whose sealing fsync fails
// leaves the tail where it was; the append's own fsync retries and succeeds,
// and the next append rotates.
func TestRotationSealFaultKeepsTail(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: 64, FsyncInterval: time.Hour})
	var calls int
	setSyncFile(j, func(f *os.File) error {
		if calls++; calls == 1 {
			return errors.New("injected seal failure")
		}
		return f.Sync()
	})
	rec := bytes.Repeat([]byte{'r'}, 100)
	lsn, err := j.Append(rec)
	if err != nil || lsn != 1 {
		t.Fatalf("append whose seal failed: lsn %d err %v, want 1 nil", lsn, err)
	}
	if d, n := j.DurableLSN(), j.Fsyncs(); d != 1 || n != 1 {
		t.Fatalf("DurableLSN %d, Fsyncs %d after the retried fsync, want 1 and 1", d, n)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(segs) != 1 {
		t.Fatalf("segments %v after a failed seal, want the first tail only", segs)
	}
	if _, err := j.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 2 || filepath.Base(segs[1]) != segmentName(3) {
		t.Fatalf("segments %v, want the first tail and a retried rotation to %s", segs, segmentName(3))
	}
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 2 {
		t.Fatalf("recovered %d records, want 2", len(got.Records))
	}
}

// TestGroupCommitModel drives durable appends and deltas from several
// goroutines while a compactor snapshots, with segments small enough that
// rotations land between them. Every durable append that returned nil must
// be covered by DurableLSN when it returns and recovered at its LSN after a
// crash, and the deltas must pay no fsync of their own.
func TestGroupCommitModel(t *testing.T) {
	const appenders, perAppender = 4, 100
	dir := t.TempDir()
	// The flusher never fires, so every fsync is a durable append's, a
	// snapshot's or a rotation's seal, and a rotation needs SegmentBytes of
	// frames since the last one.
	const segmentBytes = 512
	j := openT(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: segmentBytes, FsyncInterval: time.Hour})

	type ack struct {
		id  string
		lsn LSN
	}
	var mu sync.Mutex
	set := make(map[string]bool) // every durable id, added before its append
	acked := make([][]ack, appenders)
	var done, frameBytes atomic.Int64
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				id := fmt.Sprintf("d-%d-%03d", a, i)
				mu.Lock()
				set[id] = true
				mu.Unlock()
				lsn, err := j.Append([]byte(id))
				if err != nil {
					t.Errorf("durable append %s: %v", id, err)
					return
				}
				if d := j.DurableLSN(); d < lsn {
					t.Errorf("durable append %s returned at LSN %d with DurableLSN %d", id, lsn, d)
				}
				acked[a] = append(acked[a], ack{id, lsn})
				done.Add(1)
				frameBytes.Add(2*headerBytes + int64(len(id)+len("n-"+id)))
				if _, err := j.append([][]byte{[]byte("n-" + id)}, false); err != nil {
					t.Errorf("delta after %s: %v", id, err)
					return
				}
			}
		}(a)
	}
	capture := func() ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		ids := make([]string, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return []byte(strings.Join(ids, "\n")), nil
	}
	// The compactor snapshots every 20 acknowledged appends and stops
	// halfway, so its last snapshot overlaps live appenders and the tail
	// after it still holds records to check.
	snapshots := int64(0)
	for next := int64(20); next <= appenders*perAppender/2; next += 20 {
		for done.Load() < next && !t.Failed() {
			runtime.Gosched()
		}
		if err := j.Snapshot(capture); err != nil {
			t.Fatal(err)
		}
		snapshots++
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if j.SnapshotLSN() == 0 {
		t.Fatal("no compaction ran")
	}
	durable := int64(appenders * perAppender)
	rotations := frameBytes.Load() / segmentBytes
	if got := j.Fsyncs(); got > durable+snapshots+rotations {
		t.Fatalf("%d fsyncs for %d durable appends, %d snapshots and at most %d rotations: deltas paid fsyncs of their own",
			got, durable, snapshots, rotations)
	}
	j.Kill()

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	inSnap := make(map[string]bool)
	for _, id := range strings.Split(string(rec.Snapshot), "\n") {
		inSnap[id] = true
	}
	byLSN := make(map[LSN]string, len(rec.Records))
	for i, r := range rec.Records {
		if want := rec.SnapshotLSN + LSN(i) + 1; r.LSN != want {
			t.Fatalf("record %d recovered at LSN %d, want %d (order broken)", i, r.LSN, want)
		}
		byLSN[r.LSN] = string(r.Payload)
	}
	for _, acks := range acked {
		for _, a := range acks {
			switch {
			case a.lsn <= rec.SnapshotLSN && !inSnap[a.id]:
				t.Fatalf("%s acknowledged at LSN %d is missing from the snapshot at %d", a.id, a.lsn, rec.SnapshotLSN)
			case a.lsn > rec.SnapshotLSN && byLSN[a.lsn] != a.id:
				t.Fatalf("%s acknowledged at LSN %d, recovered %q there", a.id, a.lsn, byLSN[a.lsn])
			}
		}
	}
}

// TestFsyncFaultFailsAppendAndRetries injects one failing fsync: the durable
// append that issued it gets its error, durable and the fsync counter stay
// put, and the next durable append retries and covers every record before
// it, the failed one and a delta included.
func TestFsyncFaultFailsAppendAndRetries(t *testing.T) {
	reg := counters.NewRegistry()
	l := openSetLedger(t, t.TempDir(), Options{Fsync: FsyncAlways, FsyncInterval: time.Hour}, reg)
	defer l.Close()
	j := l.Journal

	errDisk := errors.New("injected fsync failure")
	var calls int
	setSyncFile(j, func(f *os.File) error {
		if calls++; calls == 1 {
			return errDisk
		}
		return f.Sync()
	})
	l.Note(setRec{ID: 1})
	if err := l.AppendBatch([]setRec{{ID: 2}}); !errors.Is(err, errDisk) {
		t.Fatalf("durable append under a failing fsync: %v, want the injected fault", err)
	}
	if got := j.DurableLSN(); got != 0 {
		t.Fatalf("DurableLSN = %d after the failed fsync, want 0", got)
	}
	if got, _ := reg.Value("/journal/fsyncs"); got != 0 {
		t.Fatalf("/journal/fsyncs = %v after the failed fsync, want 0", got)
	}
	if err := l.AppendBatch([]setRec{{ID: 3}}); err != nil {
		t.Fatalf("next durable append: %v", err)
	}
	if got := j.DurableLSN(); got != 3 {
		t.Fatalf("DurableLSN = %d after the retry, want 3 (it covers the failed append and the delta)", got)
	}
	if got, _ := reg.Value("/journal/fsyncs"); got != 1 {
		t.Fatalf("/journal/fsyncs = %v after the retry, want 1", got)
	}
}

// openSetLedger opens a ledger over the set tier of ledger_test.go.
func openSetLedger(t *testing.T, dir string, opts Options, reg *counters.Registry) *Ledger[setRec, setSnap] {
	t.Helper()
	l, err := OpenLedger(dir, opts, reg, Tier[setRec, setSnap]{
		Name:    "set",
		Replay:  func(setSnap, []setRec) (int, error) { return 0, nil },
		Capture: func() setSnap { return setSnap{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestNoteIsADeltaUnderAlways: a Note pays no fsync of its own; it becomes
// durable with the next durable append's commit.
func TestNoteIsADeltaUnderAlways(t *testing.T) {
	l := openSetLedger(t, t.TempDir(), Options{Fsync: FsyncAlways, FsyncInterval: time.Hour}, counters.NewRegistry())
	defer l.Close()
	l.Note(setRec{ID: 1})
	if got, d := l.Fsyncs(), l.DurableLSN(); got != 0 || d != 0 {
		t.Fatalf("after a Note: %d fsyncs, DurableLSN %d; want 0 and 0 (deltas ride the next commit)", got, d)
	}
	if err := l.AppendBatch([]setRec{{ID: 2}}); err != nil {
		t.Fatal(err)
	}
	if got, d := l.Fsyncs(), l.DurableLSN(); got != 1 || d != 2 {
		t.Fatalf("after a durable append: %d fsyncs, DurableLSN %d; want 1 and 2", got, d)
	}
}

// TestNoteUnderAlwaysFlushedWithinIntervals: a Note with no later append
// becomes durable within a bounded number of flush intervals.
func TestNoteUnderAlwaysFlushedWithinIntervals(t *testing.T) {
	const interval, bound = 2 * time.Millisecond, 250
	l := openSetLedger(t, t.TempDir(), Options{Fsync: FsyncAlways, FsyncInterval: interval}, counters.NewRegistry())
	defer l.Close()
	l.Note(setRec{ID: 1})
	deadline := time.Now().Add(bound * interval)
	for l.DurableLSN() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("Note not durable after %d flush intervals", bound)
		}
		runtime.Gosched()
	}
}
