package mesh

import (
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
	st := newMeshStore()
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
