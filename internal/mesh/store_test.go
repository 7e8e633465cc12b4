package mesh

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"taskgrain/internal/wire"
)

// backdateTouch makes a job look untouched for the given age.
func backdateTouch(j *meshJob, age time.Duration) {
	j.mu.Lock()
	j.touched = time.Now().Add(-age)
	j.mu.Unlock()
}

// TestMeshStoreEvictStale: the stale reaper must evict abandoned
// non-terminal jobs (submit-and-forget clients never trigger the terminal
// path) while leaving terminal jobs to the count bound and actively polled
// jobs alone.
func TestMeshStoreEvictStale(t *testing.T) {
	st := newMeshStore(retainMeshJobs)
	abandoned := st.add("k")
	polled := st.add("k")
	term := st.add("k")
	term.observe(wire.JobView{State: wire.JobDone})

	backdateTouch(abandoned, time.Hour)
	backdateTouch(polled, time.Hour)
	backdateTouch(term, time.Hour)
	// A status lookup refreshes the touch time, shielding a watched job.
	if _, ok := st.get(polled.id); !ok {
		t.Fatal("polled job missing before eviction")
	}

	if n := st.evictStale(30 * time.Minute); n != 1 {
		t.Fatalf("evicted %d jobs, want 1", n)
	}
	if _, ok := st.get(abandoned.id); ok {
		t.Fatal("abandoned non-terminal job survived stale eviction")
	}
	if _, ok := st.get(polled.id); !ok {
		t.Fatal("actively polled job was reaped")
	}
	if _, ok := st.get(term.id); !ok {
		t.Fatal("terminal job was reaped by stale eviction")
	}
	if got := len(st.list()); got != 2 {
		t.Fatalf("store retains %d jobs, want 2", got)
	}
}

// refStore is the reference the ring-based store is checked against — the
// definition of retention, written as plain lists: jobs in insertion order,
// terminal IDs in the order they turned terminal, and the oldest terminal job
// leaving the moment there are more than retain of them.
type refStore struct {
	retain int
	nextID uint64
	jobs   []refJob
	term   []string
}

type refJob struct {
	id       string
	num      uint64
	terminal bool
}

func (r *refStore) find(id string) int {
	for i := range r.jobs {
		if r.jobs[i].id == id {
			return i
		}
	}
	return -1
}

func (r *refStore) drop(id string) {
	if i := r.find(id); i >= 0 {
		r.jobs = append(r.jobs[:i], r.jobs[i+1:]...)
	}
}

func (r *refStore) insert(j refJob) {
	r.jobs = append(r.jobs, j)
	if j.num > r.nextID {
		r.nextID = j.num
	}
	if j.terminal {
		r.retire(j.id)
	}
}

func (r *refStore) retire(id string) {
	r.jobs[r.find(id)].terminal = true
	r.term = append(r.term, id)
	if len(r.term) > r.retain {
		r.drop(r.term[0])
		r.term = r.term[1:]
	}
}

// ids returns the retained IDs in list() order: by number.
func (r *refStore) ids() []string {
	sorted := append([]refJob(nil), r.jobs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].num < sorted[b].num })
	out := make([]string, len(sorted))
	for i, j := range sorted {
		out[i] = j.id
	}
	return out
}

// TestMeshStoreMatchesModel drives seeded random interleavings of every store
// mutation — add, first terminal observation, remove of an unplaced job,
// journal restore (fresh, duplicate, terminal or not), stale eviction —
// against refStore and requires the same retained jobs in the same list()
// order after every step, plus the ring's own invariants.
func TestMeshStoreMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		retain := 1 + rng.Intn(6)
		st := newMeshStore(retain)
		ref := &refStore{retain: retain}
		// pick returns a random retained job matching want, or nil.
		pick := func(want func(refJob) bool) *refJob {
			var match []int
			for i, j := range ref.jobs {
				if want(j) {
					match = append(match, i)
				}
			}
			if len(match) == 0 {
				return nil
			}
			return &ref.jobs[match[rng.Intn(len(match))]]
		}
		live := func(j refJob) bool { return !j.terminal }

		for step := 0; step < 400; step++ {
			op := rng.Intn(10)
			switch {
			case op < 4:
				j := st.add("k")
				ref.nextID++
				if want := fmt.Sprintf("m-%d", ref.nextID); j.id != want {
					t.Fatalf("seed %d step %d: add minted %s, want %s", seed, step, j.id, want)
				}
				ref.insert(refJob{id: j.id, num: j.num})
			case op < 7:
				// The gateway's observed(): observe, and retire on the first
				// terminal observation only — a repeat must change nothing.
				rj := pick(func(refJob) bool { return true })
				if rj == nil {
					continue
				}
				j, _ := st.get(rj.id)
				if j.observe(wire.JobView{State: wire.JobDone}) {
					st.retire(j)
				}
				if !rj.terminal {
					ref.retire(rj.id)
				}
			case op < 8:
				if rj := pick(live); rj != nil {
					st.remove(rj.id)
					ref.drop(rj.id)
				}
			case op < 9:
				// Mostly IDs ahead of nextID (they must advance it), sometimes
				// one the store may already hold (a no-op then).
				num := ref.nextID + 1 + uint64(rng.Intn(3))
				if rng.Intn(4) == 0 {
					num = 1 + uint64(rng.Intn(int(ref.nextID)+1))
				}
				rj := refJob{id: fmt.Sprintf("m-%d", num), num: num, terminal: rng.Intn(2) == 0}
				st.restore(&meshJob{id: rj.id, num: num, terminal: rj.terminal, touched: time.Now()})
				if ref.find(rj.id) < 0 {
					ref.insert(rj)
				}
			default:
				// Backdate a random subset; only its non-terminal members go.
				for _, id := range ref.ids() {
					if rng.Intn(3) == 0 {
						j, _ := st.get(id)
						backdateTouch(j, time.Hour)
						if rj := ref.jobs[ref.find(id)]; !rj.terminal {
							ref.drop(id)
						}
					}
				}
				st.evictStale(30 * time.Minute)
			}

			var got []string
			terminal := 0
			for _, j := range st.list() {
				got = append(got, j.id)
				if _, _, _, term, _, _ := j.snapshot(); term {
					terminal++
				}
			}
			if want := ref.ids(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d step %d (op %d): store lists %v, model %v", seed, step, op, got, want)
			}
			if terminal > retain || terminal != len(ref.term) {
				t.Fatalf("seed %d step %d: %d terminal jobs retained, model %d, bound %d", seed, step, terminal, len(ref.term), retain)
			}
			if st.nextID != ref.nextID {
				t.Fatalf("seed %d step %d: nextID = %d, model %d", seed, step, st.nextID, ref.nextID)
			}
			// The ring is the model's terminal list, oldest first.
			ring := append(append([]string(nil), st.retired[st.head:]...), st.retired[:st.head]...)
			if fmt.Sprint(ring) != fmt.Sprint(ref.term) {
				t.Fatalf("seed %d step %d: ring %v, model terminal order %v", seed, step, ring, ref.term)
			}
		}
	}
}

// TestMeshStoreConcurrentRetire hammers the store from several goroutines the
// way request handlers do — add, poll, first terminal observation — with a
// listing and a stale sweep running alongside, for the race detector; the
// bound must hold at every instant a listing observes and exactly retain
// terminal jobs must remain.
func TestMeshStoreConcurrentRetire(t *testing.T) {
	const retain, workers, perWorker = 16, 8, 200
	st := newMeshStore(retain)
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			terminal := 0
			for _, j := range st.list() {
				if _, _, _, term, _, _ := j.snapshot(); term {
					terminal++
				}
			}
			// A job is marked terminal just before it is retired, so a
			// listing may see up to one unretired terminal job per worker.
			if terminal > retain+workers {
				t.Errorf("listing saw %d terminal jobs, bound %d (+%d in flight)", terminal, retain, workers)
				return
			}
			st.evictStale(time.Hour)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				j := st.add("k")
				if got, ok := st.get(j.id); !ok || got != j {
					t.Errorf("job %s not retrievable right after add", j.id)
					return
				}
				if j.observe(wire.JobView{State: wire.JobDone}) {
					st.retire(j)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	if got := len(st.list()); got != retain {
		t.Fatalf("store retains %d jobs after %d terminal, want exactly %d", got, workers*perWorker, retain)
	}
}

// benchStoreAdd times one add (plus the remove that keeps the store's size
// fixed) against a store already retaining the given number of terminal jobs.
func benchStoreAdd(b *testing.B, retained int) {
	st := newMeshStore(retainMeshJobs)
	for i := 0; i < retained; i++ {
		j := st.add("k")
		j.observe(wire.JobView{State: wire.JobDone})
		st.retire(j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.remove(st.add("k").id)
	}
}

func BenchmarkMeshStoreAdd(b *testing.B) {
	for _, retained := range []int{0, retainMeshJobs} {
		b.Run(fmt.Sprintf("retained=%d", retained), func(b *testing.B) { benchStoreAdd(b, retained) })
	}
}

// TestMeshStoreAddCostFlat is the O(1) claim as a ratio: admitting a job into
// a store at its retention bound costs under 3× what it costs into an empty
// one. (The scan this replaced was over 100×.) A noisy host gets three tries.
func TestMeshStoreAddCostFlat(t *testing.T) {
	var ratio float64
	for try := 0; try < 3; try++ {
		empty := testing.Benchmark(func(b *testing.B) { benchStoreAdd(b, 0) })
		full := testing.Benchmark(func(b *testing.B) { benchStoreAdd(b, retainMeshJobs) })
		ratio = float64(full.NsPerOp()) / float64(empty.NsPerOp())
		t.Logf("add+remove: %d ns/op empty, %d ns/op at %d retained (%.2f×)", empty.NsPerOp(), full.NsPerOp(), retainMeshJobs, ratio)
		if ratio < 3 {
			return
		}
	}
	t.Fatalf("add at %d retained terminal jobs costs %.1f× the empty-store add, want < 3×", retainMeshJobs, ratio)
}
