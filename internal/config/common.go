package config

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"time"

	"taskgrain/internal/journal"
	"taskgrain/internal/policyengine"
)

// Common is the block of knobs both daemons have under the same JSON keys.
// Server and Mesh embed it, so its fields are promoted (cfg.JournalDir) and
// encode flat beside each daemon's own keys; it is validated and bound to
// flags once, here.
type Common struct {
	// Addr is the HTTP listen address.
	Addr string `json:"addr"`
	// MaxBatchJobs bounds how many specs one POST /v1/jobs/batch may carry;
	// larger batches are rejected with 400 before any admission work. A
	// gateway also caps the per-node sub-batches it forwards at it.
	MaxBatchJobs int `json:"max_batch_jobs"`
	// ControlMode selects whether the control plane actuates its decisions
	// ("actuate", the default) or only records them ("advisory").
	ControlMode string `json:"control_mode,omitempty"`

	// JournalDir, when non-empty, enables the write-ahead journal
	// (internal/journal) rooted at that directory: a node logs every job
	// lifecycle transition, a gateway every placement epoch and terminal
	// observation, and each replays its log on boot so a crash loses no
	// acknowledged job. Empty disables durability entirely.
	JournalDir string `json:"journal_dir,omitempty"`
	// JournalFsync picks the fsync policy: "always" (a durable append waits
	// for its fsync; lifecycle deltas ride the next one),
	// "interval" (group commit batching on JournalFsyncInterval, the
	// default), or "none" (OS page cache only).
	JournalFsync string `json:"journal_fsync,omitempty"`
	// JournalSegmentBytes is the segment-rotation threshold.
	JournalSegmentBytes int64 `json:"journal_segment_bytes,omitempty"`
	// JournalFsyncInterval is the flusher's group-commit window — the
	// durability analogue of grain size: all records appended within one
	// window (under "always", all deltas) share a single fsync.
	JournalFsyncInterval time.Duration `json:"journal_fsync_interval_ns,omitempty"`
}

// defaultCommon returns the shared defaults for a daemon listening on addr.
func defaultCommon(addr string) Common {
	return Common{
		Addr:                 addr,
		MaxBatchJobs:         256,
		ControlMode:          string(policyengine.ModeActuate),
		JournalFsync:         string(journal.FsyncInterval),
		JournalSegmentBytes:  4 << 20,
		JournalFsyncInterval: 2 * time.Millisecond,
	}
}

// validate reports the first problem with the shared knobs, or nil.
func (c *Common) validate() error {
	switch {
	case c.Addr == "":
		return fmt.Errorf("config: addr is empty")
	case c.MaxBatchJobs < 1:
		return fmt.Errorf("config: max_batch_jobs = %d", c.MaxBatchJobs)
	case c.JournalSegmentBytes < 1024:
		return fmt.Errorf("config: journal_segment_bytes = %d (need at least 1KiB)", c.JournalSegmentBytes)
	case c.JournalFsyncInterval <= 0:
		return fmt.Errorf("config: journal_fsync_interval = %v", c.JournalFsyncInterval)
	}
	if c.JournalFsync != "" {
		if _, err := journal.ParseFsyncPolicy(c.JournalFsync); err != nil {
			return fmt.Errorf("config: journal_fsync: %w", err)
		}
	}
	if _, err := policyengine.ParseMode(c.ControlMode); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}

// ControlModeKind returns the parsed control-plane mode.
func (c *Common) ControlModeKind() (policyengine.Mode, error) {
	return policyengine.ParseMode(c.ControlMode)
}

// JournalOptions returns the options the journal opens with (an empty
// policy is the journal's default, interval).
func (c *Common) JournalOptions() journal.Options {
	return journal.Options{
		SegmentBytes:  c.JournalSegmentBytes,
		Fsync:         journal.FsyncPolicy(c.JournalFsync),
		FsyncInterval: c.JournalFsyncInterval,
	}
}

// flags binds the shared knobs to command-line flags.
func (c *Common) flags(fs *flag.FlagSet) {
	fs.StringVar(&c.Addr, "addr", c.Addr, "HTTP listen address")
	fs.IntVar(&c.MaxBatchJobs, "max-batch-jobs", c.MaxBatchJobs, "largest accepted batch submission (specs per POST /v1/jobs/batch)")
	fs.StringVar(&c.ControlMode, "control-mode", c.ControlMode, "control plane mode (advisory, actuate)")
	fs.StringVar(&c.JournalDir, "journal-dir", c.JournalDir, "write-ahead journal directory (empty disables durability)")
	fs.StringVar(&c.JournalFsync, "journal-fsync", c.JournalFsync, "journal fsync policy (always, interval, none)")
	fs.Int64Var(&c.JournalSegmentBytes, "journal-segment-bytes", c.JournalSegmentBytes, "journal segment rotation size")
	fs.DurationVar(&c.JournalFsyncInterval, "journal-fsync-interval", c.JournalFsyncInterval, "group-commit window of the journal flusher")
}

// applyEnv is the one environment reader: it overlays prefix+KEY variables
// onto every JSON field of the struct cfg points to, KEY being the field's
// JSON key upper-cased without its _ns suffix (journal_fsync_interval_ns →
// TASKGRAIND_JOURNAL_FSYNC_INTERVAL). Durations take Go syntax ("250ms"), a
// []string a comma-separated list; an unparsable value is an error rather
// than silently ignored. lookup is os.LookupEnv when nil.
func applyEnv(prefix string, cfg any, lookup func(string) (string, bool)) error {
	if lookup == nil {
		lookup = os.LookupEnv
	}
	v := reflect.ValueOf(cfg).Elem()
	for _, sf := range reflect.VisibleFields(v.Type()) {
		if sf.Anonymous {
			continue
		}
		key, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
		name := prefix + strings.ToUpper(strings.TrimSuffix(key, "_ns"))
		s, ok := lookup(name)
		if !ok {
			continue
		}
		if err := setField(v.FieldByIndex(sf.Index), s); err != nil {
			return fmt.Errorf("config: %s=%q: %w", name, s, err)
		}
	}
	return nil
}

// setField parses s into one configuration field.
func setField(f reflect.Value, s string) error {
	switch f.Interface().(type) {
	case time.Duration:
		d, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		f.SetInt(int64(d))
		return nil
	case []string:
		f.Set(reflect.ValueOf(SplitNodes(s)))
		return nil
	}
	switch f.Kind() {
	case reflect.String:
		f.SetString(s)
	case reflect.Int, reflect.Int64:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return err
		}
		f.SetInt(n)
	case reflect.Float64:
		x, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		f.SetFloat(x)
	default:
		return fmt.Errorf("unsupported field kind %s", f.Kind())
	}
	return nil
}
