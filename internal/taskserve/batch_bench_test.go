package taskserve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"taskgrain/internal/config"
)

// BenchmarkX15BatchSubmit measures the serving layer's per-request wall
// (EXPERIMENTS X15): tiny jobs submitted through POST /v1/jobs/batch at the
// X15 batch sizes against a journaled server with fsync=always, so every
// submit round-trip pays exactly the fixed costs batching amortizes — one
// HTTP exchange, one admission check, one durability fsync. b.N counts JOBS,
// not round-trips, so ns/op is directly the per-job admission cost and the
// batch=1 → batch=256 trend is the per-request wall moving left.
func BenchmarkX15BatchSubmit(b *testing.B) {
	for _, size := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			cfg := config.DefaultServer()
			cfg.Workers = 2
			cfg.MaxConcurrentJobs = 4
			cfg.MaxQueuedJobs = 1 << 18
			cfg.MaxBatchJobs = 256
			cfg.TelemetryInterval = 5 * time.Millisecond
			cfg.ShedMinTasks = 1e12
			cfg.JournalDir = b.TempDir()
			cfg.JournalFsync = "always"
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

			body := []byte(fibBatchBody(size, ""))
			b.ResetTimer()
			for n := 0; n < b.N; n += size {
				resp, err := http.Post(ts.URL+"/v1/jobs/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					b.Fatalf("batch submit: status %d", resp.StatusCode)
				}
			}
			b.StopTimer()
			if jobs := float64(b.N); jobs > 0 {
				b.ReportMetric(float64(s.wal.Fsyncs())/jobs, "fsyncs/job")
				b.ReportMetric(float64(s.wal.AppendsBatched())/jobs, "batched-appends/job")
			}
		})
	}
}
