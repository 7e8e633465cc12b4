// Package journal is a durable write-ahead log for job-lifecycle records:
// length+CRC32C framed records in segmented append-only files, monotonic
// LSNs, snapshot compaction, and crash recovery that tolerates a torn final
// record.
//
// The fsync policy is the durability edition of the paper's granularity
// trade-off (Eq. 1): an fsync per record is the "tiny task" regime — the
// per-record overhead (a device flush) swamps the payload and throughput
// collapses. The journal therefore commits once per durable need, not once
// per record, exactly the way SpawnBatch amortizes one wake over a batch of
// spawns: the overhead is paid once per group, not once per record.
//
// An append is one of two kinds. A durable append (Append, AppendBatch)
// returns, under the always policy, only once an fsync covers its last LSN.
// A delta (Ledger.Note) is written at once and becomes durable with the next
// fsync or within FsyncInterval, whichever comes first. Every fsync covers
// all records appended before it, so deltas ride the next durable append's.
//
//	always    durable appends return after their fsync; a flusher fsyncs
//	          pending deltas every FsyncInterval
//	interval  every append is a delta: it returns after the buffered write,
//	          and the flusher commits every FsyncInterval (bounded-loss
//	          window)
//	none      never fsync (the OS flushes); for benchmarking the floor
//	          and for tests on tmpfs
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"taskgrain/internal/loop"
)

// FsyncPolicy selects when appends are flushed to stable storage.
type FsyncPolicy string

// The three fsync policies.
const (
	FsyncAlways   FsyncPolicy = "always"
	FsyncInterval FsyncPolicy = "interval"
	FsyncNone     FsyncPolicy = "none"
)

// ParseFsyncPolicy validates a policy name.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncInterval, FsyncNone:
		return FsyncPolicy(s), nil
	}
	return "", fmt.Errorf("journal: unknown fsync policy %q (want always, interval, none)", s)
}

// LSN is a log sequence number: 1-based, monotonic, gapless. A record's LSN
// is implicit in its position — segment files are named by the LSN of their
// first record, so replay reconstructs every LSN without storing them.
type LSN uint64

// Record framing: a 4-byte little-endian payload length, a 4-byte CRC32C
// (Castagnoli) of the payload, then the payload. maxRecordBytes bounds a
// single record so a garbage length field cannot drive a giant allocation
// during recovery.
const (
	headerBytes    = 8
	maxRecordBytes = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrKilled is returned by appends and syncs after Kill — the test-only
// crash switch that freezes the journal's durable state mid-run.
var ErrKilled = errors.New("journal: killed (simulated crash)")

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

// Options parameterizes Open.
type Options struct {
	// SegmentBytes rotates to a fresh segment file once the current one
	// reaches this size (default 4 MiB). Sealed segments are fsynced at
	// rotation (except under FsyncNone), so only the tail segment can ever
	// be torn.
	SegmentBytes int64
	// Fsync is the durability policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncInterval is the flusher's commit window (default 2ms): every
	// delta appended within one window — under interval, every record —
	// shares one fsync.
	FsyncInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Fsync == "" {
		o.Fsync = FsyncInterval
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 2 * time.Millisecond
	}
	return o
}

// Journal is an open write-ahead log. All methods are safe for concurrent
// use.
type Journal struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File // tail segment
	segStart LSN      // first LSN of the tail segment
	segSize  int64
	next     LSN // next LSN to assign
	appended LSN // last appended LSN
	durable  LSN // last LSN covered by an fsync
	pending  LSN // last LSN written as a delta; the flusher commits up to it
	snapLSN  LSN // LSN of the newest snapshot on disk
	closed   bool
	// syncFile is every tail fsync; tests inject faults through it.
	syncFile func(*os.File) error

	killed atomic.Bool

	// flusher commits pending deltas every FsyncInterval (nil under
	// FsyncNone); flushMeter counts its runs as /loops{journal-flush}/.
	flusher    *loop.Loop
	flushMeter loop.Meter

	// Stats, exported for telemetry counters.
	appends        atomic.Int64
	appendsBatched atomic.Int64 // records that shared their write with batch-mates
	fsyncs         atomic.Int64
	lastGroup      atomic.Int64 // records covered by the most recent group commit
	torn           atomic.Int64 // torn-tail truncations performed at Open
}

// Open creates or resumes a journal in dir. An existing log is scanned to
// the last valid record (a torn tail is truncated and counted) and appends
// continue from there; recovery of the *contents* is Recover's job and
// should run before Open.
func Open(dir string, opts Options) (*Journal, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	st, err := scanDir(dir, true)
	if err != nil {
		return nil, err
	}
	j := &Journal{
		dir:        dir,
		opts:       opts,
		next:       st.lastLSN + 1,
		appended:   st.lastLSN,
		durable:    st.lastLSN,
		snapLSN:    st.snapLSN,
		syncFile:   (*os.File).Sync,
		flushMeter: loop.NewMeter("journal-flush"),
	}
	j.torn.Store(int64(st.tornTruncations))
	if len(st.segments) == 0 {
		if err := j.openSegmentLocked(j.next); err != nil {
			return nil, err
		}
	} else {
		tail := st.segments[len(st.segments)-1]
		f, err := os.OpenFile(filepath.Join(dir, tail.name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		j.f = f
		j.segStart = tail.firstLSN
		j.segSize = tail.validBytes
	}
	if opts.Fsync != FsyncNone {
		j.flusher = j.flushMeter.Every(opts.FsyncInterval, j.flush)
	}
	return j, nil
}

// openSegmentLocked creates the segment whose first record will carry
// firstLSN and makes it the tail. Only creating the file can fail, and then
// the tail is unchanged. Caller holds j.mu (or is in Open before the journal
// escapes).
func (j *Journal) openSegmentLocked(firstLSN LSN) error {
	f, err := os.OpenFile(filepath.Join(j.dir, segmentName(firstLSN)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	syncDir(j.dir)
	j.f = f
	j.segStart = firstLSN
	j.segSize = 0
	return nil
}

// Append durably appends one framed record and returns its LSN:
// AppendBatch with a batch of one.
func (j *Journal) Append(payload []byte) (LSN, error) {
	return j.AppendBatch([][]byte{payload})
}

// AppendBatch durably appends a batch of framed records under one lock
// acquisition and returns the LSN of the first. LSNs are assigned
// contiguously, so record i carries first+i. Durability on return follows
// the fsync policy: under always one fsync covers the whole batch and every
// delta written before it — the group-commit amortization of SpawnBatch
// applied to durability; under interval the batch is a delta the flusher
// fsyncs within FsyncInterval; under none the OS flushes at its leisure.
func (j *Journal) AppendBatch(payloads [][]byte) (LSN, error) {
	return j.append(payloads, j.opts.Fsync == FsyncAlways)
}

// append writes payloads as one frame buffer and, when commit is set,
// fsyncs them before returning; otherwise they are deltas, durable at the
// next fsync. Once the frames are written the records exist — recovery
// replays them — so a failed rotation after the write is logged and retried
// by the next append, never returned as a refusal of the records. A failed
// fsync is returned, and leaves durable where it was for the next one to
// retry.
func (j *Journal) append(payloads [][]byte, commit bool) (LSN, error) {
	if len(payloads) == 0 {
		return 0, fmt.Errorf("journal: empty batch")
	}
	total := 0
	for _, p := range payloads {
		if len(p) == 0 || len(p) > maxRecordBytes {
			return 0, fmt.Errorf("journal: record size %d out of (0,%d]", len(p), maxRecordBytes)
		}
		total += headerBytes + len(p)
	}
	if j.killed.Load() {
		return 0, ErrKilled
	}
	// One contiguous frame buffer: the batch reaches the kernel as a single
	// write, so a torn tail can only ever split the batch at a record
	// boundary plus at most one torn record — exactly what recovery handles.
	buf := make([]byte, 0, total)
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, ErrClosed
	}
	if j.killed.Load() { // re-check under the lock; Kill wins races
		return 0, ErrKilled
	}
	if _, err := j.f.Write(buf); err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	n := LSN(len(payloads))
	first := j.next
	j.next += n
	j.appended = j.next - 1
	j.segSize += int64(total)
	j.appends.Add(int64(n))
	if n > 1 {
		j.appendsBatched.Add(int64(n))
	}

	if j.segSize >= j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			log.Printf("%v; the tail stays open and the next append retries the rotation", err)
		}
	}
	if !commit {
		j.pending = j.appended
		return first, nil
	}
	return first, j.syncLocked()
}

// rotateLocked seals the tail segment (fsync unless policy none) and moves
// appends to a fresh one. The new segment is created before the old one is
// closed, so on failure the old tail stays open and appendable. Once the new
// tail exists the rotation has happened: closing the sealed file loses
// nothing the policy promised, so its error is ignored. Caller holds j.mu.
func (j *Journal) rotateLocked() error {
	if j.opts.Fsync != FsyncNone {
		if err := j.syncLocked(); err != nil {
			return err
		}
	}
	sealed := j.f
	if err := j.openSegmentLocked(j.next); err != nil {
		return err
	}
	_ = sealed.Close()
	return nil
}

// flush is the flusher's body: it fsyncs every delta written since the last
// fsync, and does nothing when none is pending.
func (j *Journal) flush() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.pending > j.durable {
		_ = j.syncLocked() // a failed flush is retried at the next tick
	}
}

// Sync fsyncs every record appended so far regardless of policy — the drain
// path calls it so a graceful shutdown leaves nothing in the page cache.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

// syncLocked fsyncs the tail segment if it holds records no fsync has
// covered yet — the one flush every policy and every durable append goes
// through. Caller holds j.mu.
func (j *Journal) syncLocked() error {
	if j.killed.Load() {
		return ErrKilled
	}
	if j.closed {
		return ErrClosed
	}
	if j.appended <= j.durable {
		return nil
	}
	if err := j.syncFile(j.f); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.fsyncs.Add(1)
	j.lastGroup.Store(int64(j.appended - j.durable))
	j.durable = j.appended
	return nil
}

// Snapshot durably writes the full state capture returns, covering every
// record appended so far, then deletes segments (and older snapshots) wholly
// below it. capture runs under the journal lock, after the tail sync, so no
// append lands between reading the state and stamping its LSN: a caller that
// changes its state before appending the record for the change gets a
// snapshot that is exactly the state at that LSN. capture must not append.
// Replay after a snapshot starts from its payload and applies only records
// with greater LSNs, so replaying a record the snapshot already includes
// must be idempotent for the caller.
func (j *Journal) Snapshot(capture func() ([]byte, error)) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.killed.Load() {
		return ErrKilled
	}
	if j.closed {
		return ErrClosed
	}
	// The tail must be durable before the snapshot claims to cover it —
	// otherwise a crash could leave a snapshot at LSN n with records ≤ n
	// torn away beneath it.
	if err := j.syncLocked(); err != nil {
		return err
	}
	state, err := capture()
	if err != nil {
		return err
	}
	if len(state) > maxRecordBytes {
		return fmt.Errorf("journal: snapshot size %d exceeds %d", len(state), maxRecordBytes)
	}
	cur := j.appended
	if err := writeSnapshotFile(j.dir, cur, state); err != nil {
		return err
	}
	j.snapLSN = cur
	j.compactLocked()
	return nil
}

// SnapshotLSN returns the LSN of the newest snapshot on disk (0 if none).
func (j *Journal) SnapshotLSN() LSN {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapLSN
}

// compactLocked deletes snapshots older than the newest and segments whose
// every record is covered by it. The tail segment always survives. Caller
// holds j.mu.
func (j *Journal) compactLocked() {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return
	}
	var segs []segmentMeta
	for _, e := range entries {
		if lsn, ok := parseSnapshotName(e.Name()); ok && lsn < j.snapLSN {
			_ = os.Remove(filepath.Join(j.dir, e.Name()))
		}
		if lsn, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, segmentMeta{name: e.Name(), firstLSN: lsn})
		}
	}
	sortSegments(segs)
	// Segment i covers [firstLSN_i, firstLSN_{i+1}-1]; deletable when that
	// whole range is ≤ snapLSN.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].firstLSN-1 <= j.snapLSN && segs[i].name != segmentName(j.segStart) {
			_ = os.Remove(filepath.Join(j.dir, segs[i].name))
		}
	}
	syncDir(j.dir)
}

// Kill simulates a process crash for tests: every later append, sync, and
// snapshot fails with ErrKilled, freezing the files at this instant — the
// moment the SIGKILL landed. Records already written stay in them, as they
// would in the page cache; DurableLSN is what a power loss would have kept.
// Unlike Close it never flushes.
func (j *Journal) Kill() {
	if !j.killed.CompareAndSwap(false, true) {
		return
	}
	j.flusher.Stop()
	j.mu.Lock()
	if !j.closed {
		j.closed = true
		_ = j.f.Close()
	}
	j.mu.Unlock()
}

// Killed reports whether the crash switch fired.
func (j *Journal) Killed() bool { return j.killed.Load() }

// Close flushes and closes the journal.
func (j *Journal) Close() error {
	if j.killed.Load() {
		return ErrKilled
	}
	j.flusher.Stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	err := j.syncLocked()
	j.closed = true
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// LastLSN returns the most recently appended LSN.
func (j *Journal) LastLSN() LSN {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// DurableLSN returns the last LSN an fsync has covered: the log a power
// loss at this instant would leave.
func (j *Journal) DurableLSN() LSN {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.durable
}

// Appends returns how many records have been appended.
func (j *Journal) Appends() int64 { return j.appends.Load() }

// AppendsBatched returns how many records arrived in a batch of two or more
// — records whose frame write (and, under always, whose fsync) was shared
// with the rest of their batch.
func (j *Journal) AppendsBatched() int64 { return j.appendsBatched.Load() }

// Fsyncs returns how many fsyncs have been issued.
func (j *Journal) Fsyncs() int64 { return j.fsyncs.Load() }

// LastGroupSize returns how many records the most recent group commit
// covered — the durability edition of the batch size that amortizes Eq. 1
// overhead.
func (j *Journal) LastGroupSize() int64 { return j.lastGroup.Load() }

// TornTruncations returns how many torn tails Open truncated.
func (j *Journal) TornTruncations() int64 { return j.torn.Load() }

// EncodeRecord frames one payload: length, CRC32C, payload.
func EncodeRecord(payload []byte) []byte {
	return appendFrame(make([]byte, 0, headerBytes+len(payload)), payload)
}

// appendFrame appends one payload's frame to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// DecodeRecord parses one frame from the front of b, returning the payload
// and the bytes consumed. A short, oversized, or CRC-mismatched frame
// returns an error — during recovery that marks the torn tail.
func DecodeRecord(b []byte) (payload []byte, n int, err error) {
	if len(b) < headerBytes {
		return nil, 0, errors.New("journal: short header")
	}
	size := binary.LittleEndian.Uint32(b[0:4])
	if size == 0 || size > maxRecordBytes {
		return nil, 0, fmt.Errorf("journal: record length %d out of (0,%d]", size, maxRecordBytes)
	}
	if len(b) < headerBytes+int(size) {
		return nil, 0, errors.New("journal: short payload")
	}
	payload = b[headerBytes : headerBytes+int(size)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, errors.New("journal: CRC mismatch")
	}
	return payload, headerBytes + int(size), nil
}

// segmentName renders the file name of the segment whose first record
// carries lsn.
func segmentName(lsn LSN) string { return fmt.Sprintf("wal-%020d.log", lsn) }

// snapshotName renders the file name of the snapshot covering lsn.
func snapshotName(lsn LSN) string { return fmt.Sprintf("snap-%020d.snap", lsn) }

func parseSegmentName(name string) (LSN, bool) {
	var n uint64
	if _, err := fmt.Sscanf(name, "wal-%020d.log", &n); err != nil || segmentName(LSN(n)) != name {
		return 0, false
	}
	return LSN(n), true
}

func parseSnapshotName(name string) (LSN, bool) {
	var n uint64
	if _, err := fmt.Sscanf(name, "snap-%020d.snap", &n); err != nil || snapshotName(LSN(n)) != name {
		return 0, false
	}
	return LSN(n), true
}

// writeSnapshotFile durably writes one framed snapshot: temp file, fsync,
// atomic rename, directory fsync.
func writeSnapshotFile(dir string, lsn LSN, state []byte) error {
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = tmp.Close(); _ = os.Remove(tmpName) }
	if _, err := tmp.Write(EncodeRecord(state)); err != nil {
		cleanup()
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, snapshotName(lsn))); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
// It is best effort and cannot fail: some filesystems refuse directory opens
// or directory fsyncs.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	_ = d.Sync()
}
