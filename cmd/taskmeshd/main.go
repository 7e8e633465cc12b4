// Command taskmeshd serves a cluster of taskgraind nodes behind one
// gateway: heartbeat health-checking, idle-rate-aware routing, spillover on
// shed, and idempotent failover when a node dies mid-job. Clients speak the
// same /v1/jobs API they would speak to a single node.
//
// Usage:
//
//	taskmeshd -nodes host1:8080,host2:8080 [flags]
//
//	-config <file.json>       load configuration from a JSON file
//	-addr <host:port>         gateway listen address (default :8090)
//	-nodes <a,b,...>          comma-separated node base URLs (required)
//	-route-policy <name>      least-idle-rate | least-inflight | round-robin
//	-heartbeat-interval <dur> node heartbeat period (default 250ms)
//	-down-after <n>           consecutive heartbeat failures before down
//	-max-submit-attempts <n>  total node tries per submission
//	-max-backoff <dur>        cap on inter-pass spillover backoff
//	-hedge-delay <dur>        long-poll liveness-probe delay
//	-flow-floor <f>           inflight-task floor for idle-rate scoring
//	-request-timeout <dur>    per-node request timeout
//	-control-mode <name>      control plane mode: actuate pushes cluster
//	                          grain-consensus hints to rejoining nodes,
//	                          advisory only logs them (default actuate)
//	-journal-dir <path>       placement journal directory ("" = off): node
//	                          placements and terminal observations are
//	                          logged and replayed on gateway restart
//	-journal-fsync <name>     journal durability: always | interval | none
//	                          (default interval — group commit)
//	-journal-segment-bytes <n> journal segment rotation size (default 4MiB)
//	-journal-fsync-interval <dur> group-commit fsync period (default 2ms)
//
// Precedence, lowest to highest: defaults, the -config file, TASKMESHD_*
// environment variables, explicit flags.
//
// On SIGTERM or SIGINT the gateway stops heartbeating, flushes its routing
// counters to stdout, and exits 0. Admitted jobs live on the nodes; with
// -journal-dir set, the gateway-side placement map (which node holds which
// mesh job, at which epoch) survives a restart too, so recovered jobs keep
// polling and failing over under their original mesh IDs.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	"taskgrain/internal/config"
	"taskgrain/internal/daemon"
	"taskgrain/internal/mesh"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the gateway against the given flag arguments and streams;
// split from main for testability.
func run(args []string, stdout, stderr io.Writer) int {
	cfg := config.DefaultMesh()
	fs := flag.NewFlagSet("taskmeshd", flag.ContinueOnError)
	if code := daemon.Configure(fs, args, stderr, &cfg, func(path string) (err error) {
		cfg, err = config.LoadMeshFile(path)
		return err
	}); code != 0 {
		return code
	}

	m, err := mesh.New(cfg)
	if err != nil {
		return daemon.Fail(stderr, "taskmeshd", err)
	}
	m.Start()
	err = daemon.Serve(cfg.Addr, m.Handler(), func(addr net.Addr) {
		fmt.Fprintf(stdout, "taskmeshd listening on %s (policy %s, %d nodes)\n", addr, cfg.RoutePolicy, len(cfg.Nodes))
	}, func(sig os.Signal) error {
		fmt.Fprintf(stdout, "taskmeshd: %v — shutting down\n", sig)
		return nil
	})
	m.Stop()
	if err != nil {
		return daemon.Fail(stderr, "taskmeshd", err)
	}
	daemon.FlushCounters(stdout, m.Counters().Snapshot())
	fmt.Fprintln(stdout, "taskmeshd: stopped")
	return 0
}
