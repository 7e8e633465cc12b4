package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// openT opens a journal with test-friendly options, failing the test on
// error.
func openT(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Fsync: FsyncNone})
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		lsn, err := j.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := LSN(i + 1); lsn != got {
			t.Fatalf("append %d: lsn = %d, want %d", i, lsn, got)
		}
		want = append(want, p)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || rec.SnapshotLSN != 0 {
		t.Fatalf("unexpected snapshot at LSN %d", rec.SnapshotLSN)
	}
	if len(rec.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(want))
	}
	for i, r := range rec.Records {
		if r.LSN != LSN(i+1) || !bytes.Equal(r.Payload, want[i]) {
			t.Fatalf("record %d: lsn %d payload %q, want lsn %d payload %q",
				i, r.LSN, r.Payload, i+1, want[i])
		}
	}
	if rec.LastLSN != 100 {
		t.Fatalf("LastLSN = %d, want 100", rec.LastLSN)
	}
}

func TestAppendBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Fsync: FsyncNone})
	var want [][]byte
	batch := make([][]byte, 0, 8)
	for i := 0; i < 24; i++ {
		p := []byte(fmt.Sprintf("batched-%03d", i))
		batch = append(batch, p)
		want = append(want, p)
		if len(batch) == 8 {
			first, err := j.AppendBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if wantFirst := LSN(i + 1 - 7); first != wantFirst {
				t.Fatalf("batch first LSN = %d, want %d", first, wantFirst)
			}
			batch = batch[:0]
		}
	}
	if got := j.AppendsBatched(); got != 24 {
		t.Fatalf("AppendsBatched = %d, want 24", got)
	}
	if got := j.Appends(); got != 24 {
		t.Fatalf("Appends = %d, want 24", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(want))
	}
	for i, r := range rec.Records {
		if r.LSN != LSN(i+1) || !bytes.Equal(r.Payload, want[i]) {
			t.Fatalf("record %d: lsn %d payload %q, want lsn %d payload %q",
				i, r.LSN, r.Payload, i+1, want[i])
		}
	}
}

func TestAppendBatchFsyncAlwaysGroupsOneFsync(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Fsync: FsyncAlways})
	batch := make([][]byte, 64)
	for i := range batch {
		batch[i] = []byte(fmt.Sprintf("grouped-%02d", i))
	}
	before := j.Fsyncs()
	if _, err := j.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := j.Fsyncs() - before; got != 1 {
		t.Fatalf("batch of 64 under always issued %d fsyncs, want 1", got)
	}
	if got := j.LastGroupSize(); got != 64 {
		t.Fatalf("LastGroupSize = %d, want 64 (the whole batch in one group)", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendBatchRejectsBadBatches(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Fsync: FsyncNone})
	defer j.Close()
	if _, err := j.AppendBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := j.AppendBatch([][]byte{[]byte("ok"), nil}); err == nil {
		t.Fatal("batch with an empty record accepted")
	}
	// A rejected batch must not burn LSNs or count appends.
	if got := j.Appends(); got != 0 {
		t.Fatalf("Appends = %d after rejected batches, want 0", got)
	}
	if lsn, err := j.Append([]byte("after")); err != nil || lsn != 1 {
		t.Fatalf("append after rejected batches: lsn %d err %v, want 1 nil", lsn, err)
	}
}

func TestReopenContinuesLSNs(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Fsync: FsyncNone})
	for i := 0; i < 10; i++ {
		if _, err := j.Append([]byte("a")); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j = openT(t, dir, Options{Fsync: FsyncNone})
	lsn, err := j.Append([]byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 11 {
		t.Fatalf("post-reopen lsn = %d, want 11", lsn)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 11 {
		t.Fatalf("recovered %d records, want 11", len(rec.Records))
	}
}

func TestSegmentRotationAndChain(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations.
	j := openT(t, dir, Options{Fsync: FsyncNone, SegmentBytes: 64})
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("rotate-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records across segments, want %d", len(rec.Records), n)
	}
	for i, r := range rec.Records {
		if r.LSN != LSN(i+1) {
			t.Fatalf("record %d: lsn %d, want %d (chain broken)", i, r.LSN, i+1)
		}
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Fsync: FsyncNone, SegmentBytes: 64})
	for i := 0; i < 40; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("pre-snap-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Snapshot(state("state@40")); err != nil {
		t.Fatal(err)
	}
	if j.SnapshotLSN() != 40 {
		t.Fatalf("SnapshotLSN = %d, want 40", j.SnapshotLSN())
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) > 2 {
		t.Fatalf("compaction left %d segments (%v), want at most the tail and its predecessor", len(segs), segs)
	}
	for i := 0; i < 5; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("post-snap-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Snapshot) != "state@40" || rec.SnapshotLSN != 40 {
		t.Fatalf("snapshot = %q at %d, want state@40 at 40", rec.Snapshot, rec.SnapshotLSN)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("replay tail has %d records, want 5 (only post-snapshot)", len(rec.Records))
	}
	if rec.Records[0].LSN != 41 {
		t.Fatalf("first replay LSN = %d, want 41", rec.Records[0].LSN)
	}
}

func TestSnapshotSupersedesOlderSnapshot(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Fsync: FsyncNone})
	if _, err := j.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot(state("s1")); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot(state("s2")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("compaction kept %d snapshots, want 1", len(snaps))
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Snapshot) != "s2" || len(rec.Records) != 0 {
		t.Fatalf("recovered snapshot %q with %d tail records, want s2 with 0", rec.Snapshot, len(rec.Records))
	}
}

func TestGroupCommitBatchesAppenders(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Fsync: FsyncInterval, FsyncInterval: 5 * time.Millisecond})
	const appenders, perAppender = 8, 50
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				if _, err := j.Append([]byte(fmt.Sprintf("g-%d-%d", a, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	appends, fsyncs := j.Appends(), j.Fsyncs()
	if appends != appenders*perAppender {
		t.Fatalf("appends = %d, want %d", appends, appenders*perAppender)
	}
	// The whole point of group commit: far fewer fsyncs than appends.
	if fsyncs >= appends {
		t.Fatalf("fsyncs = %d for %d appends: group commit did not batch", fsyncs, appends)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != appenders*perAppender {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), appenders*perAppender)
	}
}

func TestFsyncAlwaysSyncsEveryAppend(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Fsync: FsyncAlways})
	for i := 0; i < 10; i++ {
		if _, err := j.Append([]byte("d")); err != nil {
			t.Fatal(err)
		}
	}
	if j.Fsyncs() < 10 {
		t.Fatalf("fsyncs = %d, want ≥ 10 under always", j.Fsyncs())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestKillFreezesDurableState(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Fsync: FsyncNone})
	for i := 0; i < 5; i++ {
		if _, err := j.Append([]byte("kept")); err != nil {
			t.Fatal(err)
		}
	}
	j.Kill()
	if _, err := j.Append([]byte("dropped")); err != ErrKilled {
		t.Fatalf("append after Kill: err = %v, want ErrKilled", err)
	}
	if err := j.Sync(); err != ErrKilled {
		t.Fatalf("sync after Kill: err = %v, want ErrKilled", err)
	}
	if err := j.Snapshot(state("x")); err != ErrKilled {
		t.Fatalf("snapshot after Kill: err = %v, want ErrKilled", err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records, want the 5 pre-kill ones", len(rec.Records))
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, good := range []string{"always", "interval", "none"} {
		if _, err := ParseFsyncPolicy(good); err != nil {
			t.Errorf("ParseFsyncPolicy(%q): %v", good, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy(sometimes) accepted")
	}
}

func TestRecoverEmptyAndMissingDir(t *testing.T) {
	rec, err := Recover(filepath.Join(t.TempDir(), "never-created"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastLSN != 0 || len(rec.Records) != 0 || rec.Snapshot != nil {
		t.Fatalf("missing dir recovered non-empty: %+v", rec)
	}
}

func TestCorruptSealedSegmentIsHardError(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Fsync: FsyncNone, SegmentBytes: 64})
	for i := 0; i < 30; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("sealed-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 2 {
		t.Fatalf("need ≥ 2 segments, got %d", len(segs))
	}
	// Flip a byte in the FIRST (sealed) segment: that is corruption, not a
	// torn tail, and recovery must refuse rather than silently drop records.
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil {
		t.Fatal("Recover accepted a corrupt sealed segment")
	}
}

// state is a snapshot capture that returns a fixed payload.
func state(s string) func() ([]byte, error) {
	return func() ([]byte, error) { return []byte(s), nil }
}
