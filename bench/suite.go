package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"taskgrain/internal/stats"
)

// The suite is a thin front-end over the single-workload run: it re-executes
// this binary once per run, so every run is a fresh process (peak RSS, GC
// state and the job stores start clean) measured by the same code the
// benchmark driver calls.

// suiteRuns is how many untraced runs (seeds seed, seed+1, …) each workload
// gets; the archived end-to-end value is their median and the spread is
// (max − min) / median.
const suiteRuns = 3

type suiteConfig struct {
	seed        int64
	window      time.Duration
	smoke       bool
	repeat      int
	journalRoot string
	out         string
}

// benchValue is one end-to-end metric in a BENCH file.
type benchValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Runs   []float64 `json:"runs"`
	Spread float64   `json:"spread"` // (max − min) / median of runs
}

// benchWorkload is one workload's section of a BENCH file.
type benchWorkload struct {
	Why       string                `json:"why"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	EndToEnd  map[string]benchValue `json:"end_to_end"`
	PerLayer  map[string]metric     `json:"per_layer"`
}

// benchFile is the archive schema: BENCH_11.json and every later BENCH_N.
type benchFile struct {
	Schema          int                       `json:"schema"`
	Date            string                    `json:"date"`
	Commit          string                    `json:"commit"`
	Host            map[string]any            `json:"host"`
	Seed            int64                     `json:"seed"`
	RunSeconds      float64                   `json:"run_seconds"`
	RunsPerWorkload int                       `json:"runs_per_workload"`
	WallSeconds     float64                   `json:"wall_seconds"`
	Workloads       map[string]*benchWorkload `json:"workloads"`
}

func suiteMain(spec *benchSpec, cfg suiteConfig) int {
	start := time.Now()
	var sets []*benchFile
	for r := 0; r < max(cfg.repeat, 1); r++ {
		set, err := runSet(spec, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		set.WallSeconds = time.Since(start).Seconds()
		start = time.Now()
		printSet(spec, set)
		sets = append(sets, set)
	}
	last := sets[len(sets)-1]
	code := 0
	for _, w := range last.Workloads {
		if w.Failed > 0 {
			code = 1
		}
	}
	if len(sets) > 1 {
		// The repeatability gate: the same binary, the same seeds, twice.
		fmt.Printf("\nrepeatability: set %d against set %d\n", len(sets)-1, len(sets))
		if rows := compareFiles(spec, sets[len(sets)-2], last, true); printRows(rows) > 0 {
			code = 1
		}
	}
	if cfg.smoke {
		return code
	}
	b, err := json.MarshalIndent(last, "", "  ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(cfg.out), 0o755); err == nil {
			err = os.WriteFile(cfg.out, append(b, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("\nwrote %s (one set took %.0f s)\n", cfg.out, last.WallSeconds)
	return code
}

// runSet runs every workload: suiteRuns untraced runs, then one traced run.
func runSet(spec *benchSpec, cfg suiteConfig) (*benchFile, error) {
	set := &benchFile{
		Schema:          1,
		Date:            time.Now().UTC().Format(time.RFC3339),
		Commit:          gitCommit(),
		Host:            hostFacts(cfg.journalRoot),
		Seed:            cfg.seed,
		RunSeconds:      cfg.window.Seconds(),
		RunsPerWorkload: suiteRuns,
		Workloads:       map[string]*benchWorkload{},
	}
	runs := suiteRuns
	if cfg.smoke {
		runs = 1
	}
	for _, wl := range workloads {
		bw := &benchWorkload{Why: wl.why, EndToEnd: map[string]benchValue{}}
		set.Workloads[wl.name] = bw
		for i := 0; i < runs; i++ {
			out, err := runChild(wl.name, cfg.seed+int64(i), false, cfg)
			if err != nil {
				return nil, err
			}
			bw.Attempted += out.Attempted
			bw.Failed += out.Failed
			for _, ms := range spec.EndToEnd {
				m, ok := out.Metrics[ms.Name]
				if !ok {
					return nil, fmt.Errorf("%s: run printed no %s", wl.name, ms.Name)
				}
				v := bw.EndToEnd[ms.Name]
				v.Unit = m.Unit
				v.Runs = append(v.Runs, m.Value)
				bw.EndToEnd[ms.Name] = v
			}
		}
		for name, v := range bw.EndToEnd {
			v.Value = stats.Percentile(v.Runs, 50)
			lo, hi := v.Runs[0], v.Runs[0]
			for _, x := range v.Runs {
				lo, hi = min(lo, x), max(hi, x)
			}
			v.Spread = ratio(hi-lo, v.Value)
			bw.EndToEnd[name] = v
		}
		out, err := runChild(wl.name, cfg.seed, true, cfg)
		if err != nil {
			return nil, err
		}
		bw.Attempted += out.Attempted
		bw.Failed += out.Failed
		bw.PerLayer = out.Metrics
	}
	return set, nil
}

// runChild re-executes this binary for one run and parses its result line.
func runChild(workload string, seed int64, traced bool, cfg suiteConfig) (runOutput, error) {
	var out runOutput
	self, err := os.Executable()
	if err != nil {
		return out, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(max(int(cfg.window.Seconds()), 1)), "--trace", trace,
		"--journal-root", cfg.journalRoot,
	}
	if cfg.smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return out, fmt.Errorf("%s (trace %s): %w", workload, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte{'\n'})
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return out, fmt.Errorf("%s (trace %s): result line: %w", workload, trace, err)
	}
	return out, nil
}

// printSet prints every metric by name with its unit, per workload.
func printSet(spec *benchSpec, set *benchFile) {
	for _, wl := range workloads {
		bw := set.Workloads[wl.name]
		fmt.Printf("\n== %s — %d jobs attempted, %d failed\n", wl.name, bw.Attempted, bw.Failed)
		for _, ms := range spec.EndToEnd {
			v := bw.EndToEnd[ms.Name]
			fmt.Printf("  %-44s %14.4f %-5s (median of %d runs, spread %.1f%% of it; %s is better, bound %.0f%%)\n",
				ms.Name, v.Value, v.Unit, len(v.Runs), v.Spread*100, ms.Better, ms.Bound*100)
		}
		names := make([]string, 0, len(bw.PerLayer))
		for name := range bw.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-44s %14.4f %s\n", name, bw.PerLayer[name].Value, bw.PerLayer[name].Unit)
		}
	}
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // a checkout without git metadata
	}
	return strings.TrimSpace(string(out))
}

// hostFacts records what the numbers depend on besides the code.
func hostFacts(journalRoot string) map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"cpu":          cpu,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   benchProcs,
		"go":           runtime.Version(),
		"os_arch":      runtime.GOOS + "/" + runtime.GOARCH,
		"journal_root": journalRoot,
		"journal_fs":   fsType(journalRoot),
	}
}

// fsType names the filesystem holding dir (or its nearest existing parent):
// on tmpfs an fsync is free, which changes every journaled workload.
func fsType(dir string) string {
	var st syscall.Statfs_t
	for {
		if err := syscall.Statfs(dir, &st); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
