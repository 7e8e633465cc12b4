// Command taskgraind serves the taskrt runtime as a long-running task
// execution daemon: JSON jobs over HTTP, admission control with load
// shedding, adaptive grain selection from live counters, and a graceful
// SIGTERM drain.
//
// Usage:
//
//	taskgraind [flags]
//
//	-config <file.json>     load configuration from a JSON file
//	-addr <host:port>       HTTP listen address (default :8080)
//	-workers <n>            runtime worker threads (0 = GOMAXPROCS)
//	-policy <name>          scheduling policy (default priority-local-fifo)
//	-max-queued-jobs <n>    job-queue admission bound (shed 429 beyond)
//	-max-concurrent-jobs <n> concurrent job runners
//	-max-inflight-tasks <n> runtime task-backlog admission bound
//	-high-idle <f>          idle-rate shed threshold (Eq. 1; default 0.30)
//	-shed-min-tasks <f>     interval task floor before idle-rate sheds
//	-retry-after <dur>      Retry-After hint on shed responses
//	-control-mode <name>    control plane mode: actuate applies policy
//	                        verdicts and grain hints, advisory only logs
//	                        them at /control/decisions (default actuate)
//	-max-job-size <n>       largest accepted job size
//	-default-deadline <dur> deadline for jobs that set none (0 = none)
//	-drain-timeout <dur>    bound on the SIGTERM drain (default 1m)
//	-telemetry-interval <dur> counter sampling period: the telemetry ring,
//	                        admission and the policy engine (default 50ms)
//	-telemetry-ring <n>     samples retained per counter (default 600)
//	-watchdog-window <dur>  idle-rate watchdog sliding window (default 5s)
//	-journal-dir <path>     write-ahead job journal directory ("" = off):
//	                        every admitted job is logged before its 202 and
//	                        replayed on restart
//	-journal-fsync <name>   journal durability: always | interval | none
//	                        (default interval — group commit)
//	-journal-segment-bytes <n> journal segment rotation size (default 4MiB)
//	-journal-fsync-interval <dur> group-commit fsync period (default 2ms)
//	-journal-recovery <name> requeue recovered non-terminal jobs, or fail
//	                        them lost-on-crash (requeue | fail)
//	-terminal-ttl <dur>     evict terminal jobs this long after finishing,
//	                        compacting the journal to match (0 = keep)
//	-chaos-seed <n>         arm deterministic scheduler fault injection
//	                        with this seed (0 = off; test/repro only —
//	                        replays the interleavings a chaos scenario
//	                        found, see internal/chaos)
//
// Precedence, lowest to highest: defaults, the -config file, TASKGRAIND_*
// environment variables, explicit flags.
//
// On SIGTERM or SIGINT the daemon stops admitting (new submissions get
// 503 + Retry-After), finishes every admitted job, flushes the final
// counter snapshot to stdout, and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"taskgrain/internal/config"
	"taskgrain/internal/daemon"
	"taskgrain/internal/taskserve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the daemon against the given flag arguments and streams;
// split from main for testability.
func run(args []string, stdout, stderr io.Writer) int {
	cfg := config.DefaultServer()
	fs := flag.NewFlagSet("taskgraind", flag.ContinueOnError)
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "bound on the graceful drain after SIGTERM")
	if code := daemon.Configure(fs, args, stderr, &cfg, func(path string) (err error) {
		cfg, err = config.LoadServerFile(path)
		return err
	}); code != 0 {
		return code
	}

	s, err := taskserve.New(cfg)
	if err != nil {
		return daemon.Fail(stderr, "taskgraind", err)
	}
	s.Start()
	err = daemon.Serve(cfg.Addr, s.Handler(), func(addr net.Addr) {
		fmt.Fprintf(stdout, "taskgraind listening on %s (workers %d, policy %s, queue %d, high-idle %.0f%%)\n",
			addr, s.Config().Workers, cfg.Policy, cfg.MaxQueuedJobs, cfg.HighIdle*100)
	}, func(sig os.Signal) error {
		// Stop admitting, finish everything already admitted, flush counters.
		fmt.Fprintf(stdout, "taskgraind: %v — draining (new submissions get 503 + Retry-After)\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		snap, err := s.Drain(ctx)
		daemon.FlushCounters(stdout, snap)
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		return nil
	})
	s.Close()
	if err != nil {
		return daemon.Fail(stderr, "taskgraind", err)
	}
	fmt.Fprintln(stdout, "taskgraind: drained cleanly")
	return 0
}
