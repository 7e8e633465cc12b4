package counters

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
)

// histBuckets is the number of power-of-two latency buckets: bucket i holds
// observations in [2^(i-1), 2^i) ns, bucket 0 holds 0 ns.
const histBuckets = 64

// Histogram is a lock-free power-of-two latency histogram. The averages the
// paper works with (t_d, t_o) hide the distribution; the histogram exposes
// it — e.g. the bimodality that appears when some partitions hit memory
// contention and others do not. Implements Counter (Value = mean).
//
// It holds one shard per writer, each on cache lines of its own: writer w
// observes into shard w with ObserveAt, so the runtime's workers record
// every phase without touching a line another worker writes. Every reading
// sums the shards. The count is the sum of the buckets, so a quantile's
// target never exceeds the observations its buckets hold.
type Histogram struct {
	name   string
	shards []histShard
}

// histShard is one writer's buckets and sum. The padding rounds it to a
// whole number of 64-byte lines.
type histShard struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	_       [56]byte
}

// NewHistogram creates a single-shard histogram counter with the given
// symbolic name, for Observe.
func NewHistogram(name string) *Histogram { return NewPerWorkerHistogram(name, 1) }

// NewPerWorkerHistogram creates a histogram with one shard per worker, for
// ObserveAt.
func NewPerWorkerHistogram(name string, workers int) *Histogram {
	return &Histogram{name: name, shards: make([]histShard, workers)}
}

// Name implements Counter.
func (h *Histogram) Name() string { return h.name }

// Observe records one duration in nanoseconds into the first shard
// (negative values clamp to 0).
func (h *Histogram) Observe(ns int64) { h.ObserveAt(0, ns) }

// ObserveAt records one duration in nanoseconds into worker w's shard
// (negative values clamp to 0).
func (h *Histogram) ObserveAt(w int, ns int64) {
	if ns < 0 {
		ns = 0
	}
	s := &h.shards[w]
	s.buckets[bits.Len64(uint64(ns))].Add(1)
	s.sum.Add(ns)
}

// merged returns the bucket counts summed over the shards and their total.
func (h *Histogram) merged() (b [histBuckets]int64, n int64) {
	for i := range h.shards {
		s := &h.shards[i]
		for j := range b {
			b[j] += s.buckets[j].Load()
		}
	}
	for _, c := range b {
		n += c
	}
	return b, n
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	_, n := h.merged()
	return n
}

// Sum returns the total of all observations in nanoseconds.
func (h *Histogram) Sum() int64 {
	var sum int64
	for i := range h.shards {
		sum += h.shards[i].sum.Load()
	}
	return sum
}

// Mean returns the average observation in nanoseconds.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Value implements Counter: the mean observation.
func (h *Histogram) Value() float64 { return h.Mean() }

// Reset implements Counter.
func (h *Histogram) Reset() {
	for i := range h.shards {
		s := &h.shards[i]
		for j := range s.buckets {
			s.buckets[j].Store(0)
		}
		s.sum.Store(0)
	}
}

// Quantile returns an estimate of the q-th quantile (0..1) using the
// geometric midpoint of the containing bucket. Returns 0 for an empty
// histogram; q is clamped into [0,1].
func (h *Histogram) Quantile(q float64) float64 {
	b, n := h.merged()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range b {
		cum += c
		if cum >= target {
			if i == 0 {
				return 0
			}
			lo := math.Exp2(float64(i - 1))
			hi := math.Exp2(float64(i))
			return math.Sqrt(lo * hi) // geometric midpoint
		}
	}
	return math.Exp2(histBuckets - 1)
}

// Bucket is one non-empty histogram bin.
type Bucket struct {
	LoNs  float64 // inclusive lower bound (ns)
	HiNs  float64 // exclusive upper bound (ns)
	Count int64
}

// Buckets returns the non-empty bins in ascending order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	b, _ := h.merged()
	for i, c := range b {
		if c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = math.Exp2(float64(i - 1))
		}
		out = append(out, Bucket{LoNs: lo, HiNs: math.Exp2(float64(i)), Count: c})
	}
	return out
}

// Render draws the distribution as horizontal ASCII bars.
func (h *Histogram) Render() string {
	bks := h.Buckets()
	if len(bks) == 0 {
		return fmt.Sprintf("%s: (empty)\n", h.name)
	}
	max := int64(0)
	for _, b := range bks {
		if b.Count > max {
			max = b.Count
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: n=%d mean=%s p50=%s p99=%s\n",
		h.name, h.Count(), fmtNs(h.Mean()), fmtNs(h.Quantile(0.5)), fmtNs(h.Quantile(0.99)))
	for _, b := range bks {
		width := int(float64(b.Count) / float64(max) * 40)
		if width < 1 {
			width = 1
		}
		fmt.Fprintf(&sb, "  [%8s, %8s) %-40s %d\n",
			fmtNs(b.LoNs), fmtNs(b.HiNs), strings.Repeat("#", width), b.Count)
	}
	return sb.String()
}

// fmtNs renders nanoseconds with an adaptive unit.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2gs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3gms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.3gµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
