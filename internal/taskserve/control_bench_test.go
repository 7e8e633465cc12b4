package taskserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"taskgrain/internal/config"
	"taskgrain/internal/policyengine"
)

// BenchmarkX16ControlLoop measures the control plane's cold-start cost
// (EXPERIMENTS X16): b.N adaptive stencil jobs submitted one at a time
// against a fresh node, so ns/op is the per-job wall including the grain
// walk the controller performs while converging. The variants isolate the
// two control-plane levers: advisory mode gates policy actions and external
// hints (the per-job walk, being the kind's own local evidence, still
// moves), actuate additionally accepts hints, and hint=cluster seeds the
// node with a cluster-consensus grain over POST /control/hint before the
// first job — the restarted-node path, where inherited state should shrink
// the walk. grain-moves is the cold-start churn figure: total grow+shrink
// decisions the run needed before settling (a hinted node should need
// none); final-grain shows where the walk (or the hint) landed.
func BenchmarkX16ControlLoop(b *testing.B) {
	variants := []struct {
		name string
		mode policyengine.Mode
		hint int // 0 = no hint pushed
	}{
		{"mode=advisory/hint=none", policyengine.ModeAdvisory, 0},
		{"mode=actuate/hint=none", policyengine.ModeActuate, 0},
		{"mode=actuate/hint=cluster", policyengine.ModeActuate, 4096},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := config.DefaultServer()
			cfg.Workers = 2
			cfg.MaxConcurrentJobs = 1
			cfg.MaxQueuedJobs = 1 << 18
			cfg.TelemetryInterval = 5 * time.Millisecond
			cfg.ShedMinTasks = 1e12
			cfg.ControlMode = string(v.mode)
			s, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			s.Start()
			ts := httptest.NewServer(s.Handler())
			defer func() {
				ts.Close()
				_ = s.Close()
			}()

			if v.hint > 0 {
				hint, _ := json.Marshal(map[string]any{
					"grains": map[string]int{KindStencil: v.hint},
					"source": "bench-cluster",
				})
				resp, err := http.Post(ts.URL+"/control/hint", "application/json", bytes.NewReader(hint))
				if err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("hint push: status %d", resp.StatusCode)
				}
			}

			spec, _ := json.Marshal(JobSpec{Kind: KindStencil, Size: 40_000, Steps: 2})
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
				if err != nil {
					b.Fatal(err)
				}
				var view JobView
				if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					b.Fatalf("submit: status %d", resp.StatusCode)
				}
				poll, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s?wait=true&timeout=60s", ts.URL, view.ID))
				if err != nil {
					b.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, poll.Body)
				poll.Body.Close()
			}
			b.StopTimer()

			_, _, grown, shrunk, _ := s.Engine().GrainStats(KindStencil)
			b.ReportMetric(float64(grown+shrunk), "grain-moves")
			b.ReportMetric(float64(s.Engine().Grain(KindStencil)), "final-grain")
		})
	}
}
