package journal

import (
	"encoding/json"
	"fmt"
	"log"
	"sync"

	"taskgrain/internal/counters"
)

// Tier is what one journaling tier (the node's job store, the gateway's
// placement map) plugs into a Ledger: its name, a replay fold and a state
// capture over its own JSON record type R and snapshot type S.
type Tier[R, S any] struct {
	// Name prefixes the ledger's errors and log lines ("taskserve", "mesh").
	Name string
	// Replay rebuilds the tier's store from the recovered snapshot (the zero
	// S when there is none) and the records after it, before the journal
	// opens for appending, and reports how many jobs it recovered.
	Replay func(snap S, recs []R) (jobs int, err error)
	// Capture returns the tier's full state for a compaction snapshot. It
	// runs under the journal lock and must not append.
	Capture func() S
}

// Ledger is a Journal bound to one tier: recovery, counters, typed appends
// and compaction are written once here, so both tiers journal a job the same
// way and a journal.* figure describes one code path.
//
// Its invariant is that a snapshot is exactly the tier's state at the
// snapshot's LSN. Compact captures the state inside Snapshot's lock, after
// the tail sync, so it holds for any tier that changes its state before it
// appends the record describing the change: an append that beat the capture
// is in the snapshot, one that lost is replayed after it. Appends pay nothing
// for it; only a compaction holds them off while it runs.
type Ledger[R, S any] struct {
	*Journal
	name      string
	capture   func() S
	recovered *counters.Cumulative
	closeOnce sync.Once
}

// OpenLedger recovers dir and hands the decoded snapshot and records to
// tier.Replay, then opens the journal for appending and registers the
// /journal/* counters and the flusher's /loops{journal-flush}/ pair on reg.
func OpenLedger[R, S any](dir string, opts Options, reg *counters.Registry, tier Tier[R, S]) (*Ledger[R, S], error) {
	rec, err := Recover(dir)
	if err != nil {
		return nil, fmt.Errorf("%s: journal recovery: %w", tier.Name, err)
	}
	var snap S
	if rec.Snapshot != nil {
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return nil, fmt.Errorf("%s: journal snapshot: %w", tier.Name, err)
		}
	}
	recs := make([]R, len(rec.Records))
	for i, r := range rec.Records {
		if err := json.Unmarshal(r.Payload, &recs[i]); err != nil {
			return nil, fmt.Errorf("%s: journal record at LSN %d: %w", tier.Name, r.LSN, err)
		}
	}
	jobs, err := tier.Replay(snap, recs)
	if err != nil {
		return nil, err
	}
	j, err := Open(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: journal open: %w", tier.Name, err)
	}

	l := &Ledger[R, S]{
		Journal:   j,
		name:      tier.Name,
		capture:   tier.Capture,
		recovered: counters.NewCumulative("/journal/recovered-jobs"),
	}
	torn := counters.NewCumulative("/journal/torn-tail-truncations")
	l.recovered.Add(int64(jobs))
	torn.Add(int64(rec.TornTruncations))
	reg.MustRegister(l.recovered)
	reg.MustRegister(torn)
	j.flushMeter.Register(reg)
	for _, c := range []struct {
		name string
		read func() int64
	}{
		{"/journal/appends", j.Appends},
		{"/journal/fsyncs", j.Fsyncs},
		{"/journal/group-commit-size", j.LastGroupSize},
		{"/journal/appends-batched", j.AppendsBatched},
	} {
		read := c.read
		reg.MustRegister(counters.NewDerived(c.name, func() float64 { return float64(read()) }))
	}
	if jobs > 0 || rec.TornTruncations > 0 {
		log.Printf("%s: journal recovered %d jobs (%d torn-tail truncations)", tier.Name, jobs, rec.TornTruncations)
	}
	return l, nil
}

// Recovered returns how many jobs OpenLedger's replay recovered.
func (l *Ledger[R, S]) Recovered() int64 { return l.recovered.Raw() }

// AppendBatch marshals recs and durably appends them as one vectored write:
// under always it returns once one fsync covers them all. An error means
// none of them may be acknowledged as durable.
func (l *Ledger[R, S]) AppendBatch(recs []R) error {
	payloads := make([][]byte, len(recs))
	for i := range recs {
		b, err := json.Marshal(recs[i])
		if err != nil {
			return err
		}
		payloads[i] = b
	}
	_, err := l.Journal.AppendBatch(payloads)
	return err
}

// Commit is AppendBatch for records whose reply does not wait on the
// outcome: it logs any failure but a simulated crash.
func (l *Ledger[R, S]) Commit(recs []R) {
	if err := l.AppendBatch(recs); err != nil && err != ErrKilled {
		log.Printf("%s: journal commit of %d records: %v", l.name, len(recs), err)
	}
}

// Note appends one record as a delta: written now, durable at the next
// commit or within FsyncInterval, so it costs no fsync of its own. A lost
// note only widens the replay window after the next restart; it never costs
// a live request. Failures but a simulated crash are logged.
func (l *Ledger[R, S]) Note(rec R) {
	b, err := json.Marshal(rec)
	if err == nil {
		_, err = l.Journal.append([][]byte{b}, false)
	}
	if err != nil && err != ErrKilled {
		log.Printf("%s: journal %s: %v", l.name, b, err)
	}
}

// Compact writes a snapshot of the tier's captured state, letting the
// journal delete every segment wholly below it.
func (l *Ledger[R, S]) Compact() {
	err := l.Snapshot(func() ([]byte, error) { return json.Marshal(l.capture()) })
	if err != nil && err != ErrKilled {
		log.Printf("%s: journal snapshot: %v", l.name, err)
	}
}

// Close compacts and closes the journal once, logging a failure, so a clean
// restart replays nothing. After Kill it does nothing: a crashed journal
// stays frozen at the kill instant.
func (l *Ledger[R, S]) Close() {
	if l.Killed() {
		return
	}
	l.closeOnce.Do(func() {
		l.Compact()
		if err := l.Journal.Close(); err != nil {
			log.Printf("%s: journal close: %v", l.name, err)
		}
	})
}
