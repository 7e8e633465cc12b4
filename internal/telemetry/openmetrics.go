package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"taskgrain/internal/counters"
)

// ContentType is the OpenMetrics exposition media type served by /metrics.
const ContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// MetricPoint is one exported sample: a metric family, its OpenMetrics
// type, a label set, and the value.
type MetricPoint struct {
	Family string
	Type   string // "gauge" or "counter"
	Labels map[string]string
	Value  float64
}

// MapCounter converts a counter path to its OpenMetrics family name and
// the labels extracted from instance decorations:
//
//	/threads/idle-rate                              → taskgrain_threads_idle_rate
//	/threads{worker-thread#3}/count/pending-misses  → taskgrain_threads_count_pending_misses{worker="3"}
//	/mesh/node{127.0.0.1:8081}/routed-jobs          → taskgrain_mesh_node_routed_jobs{node="127.0.0.1:8081"}
//	/other{thing}/x                                 → taskgrain_other_x{instance="thing"}
//
// base labels (e.g. node="host:port" on a node's own exporter) are merged
// in; an instance-derived label wins over a base label of the same name.
func MapCounter(path string, base map[string]string) (family string, labels map[string]string) {
	labels = make(map[string]string, len(base)+1)
	for k, v := range base {
		labels[k] = v
	}
	name := path
	if i := strings.Index(name, "{"); i >= 0 {
		if j := strings.Index(name[i:], "}"); j > 0 {
			inst := name[i+1 : i+j]
			name = name[:i] + name[i+j+1:]
			switch {
			case strings.HasPrefix(inst, "worker-thread#"):
				labels["worker"] = strings.TrimPrefix(inst, "worker-thread#")
			case strings.HasPrefix(path, "/mesh/node{"):
				labels["node"] = inst
			default:
				labels["instance"] = inst
			}
		}
	}
	mapper := func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '_'
		}
	}
	family = "taskgrain" + strings.Map(mapper, name)
	family = strings.Trim(family, "_")
	for strings.Contains(family, "__") {
		family = strings.ReplaceAll(family, "__", "_")
	}
	return family, labels
}

// PointsFromRegistry converts a live registry to metric points, classifying
// each family's OpenMetrics type from the registered counter kinds:
// counters.Monotonic ones (Cumulative, PerWorker, Pair) → counter;
// everything else (gauges, derived ratios) → gauge. Classification is
// family-wide, so the per-worker Derived instances of a PerWorker counter
// inherit counter semantics instead of splitting one family across two
// types.
func PointsFromRegistry(reg *counters.Registry, base map[string]string) []MetricPoint {
	names := reg.Names()
	// First pass: family-wide type classification.
	familyType := make(map[string]string, len(names))
	for _, n := range names {
		fam, _ := MapCounter(n, nil)
		c, ok := reg.Get(n)
		if !ok {
			continue
		}
		if counters.Monotonic(c) {
			familyType[fam] = "counter"
		} else if _, seen := familyType[fam]; !seen {
			familyType[fam] = "gauge"
		}
	}
	out := make([]MetricPoint, 0, len(names))
	for _, n := range names {
		v, ok := reg.Value(n)
		if !ok {
			continue
		}
		fam, labels := MapCounter(n, base)
		out = append(out, MetricPoint{Family: fam, Type: familyType[fam], Labels: labels, Value: v})
	}
	return out
}

// PointsFromSnapshot converts a plain snapshot (e.g. a remote node's
// heartbeat reading, where the counter kinds are unknown) to metric
// points, all typed gauge.
func PointsFromSnapshot(snap counters.Snapshot, base map[string]string) []MetricPoint {
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]MetricPoint, 0, len(names))
	for _, n := range names {
		fam, labels := MapCounter(n, base)
		out = append(out, MetricPoint{Family: fam, Type: "gauge", Labels: labels, Value: snap[n]})
	}
	return out
}

// WriteOpenMetrics renders points as an OpenMetrics exposition: families
// grouped and sorted, one # TYPE line per family, counter samples suffixed
// _total as the spec requires, terminated by # EOF.
//
// A family fed points with conflicting types degrades to gauge — one
// family cannot legally carry both, and gauge never lies about
// monotonicity the way counter would.
func WriteOpenMetrics(w io.Writer, points []MetricPoint) error {
	byFamily := make(map[string][]MetricPoint)
	familyType := make(map[string]string)
	var families []string
	for _, p := range points {
		if _, ok := byFamily[p.Family]; !ok {
			families = append(families, p.Family)
			familyType[p.Family] = p.Type
		} else if familyType[p.Family] != p.Type {
			familyType[p.Family] = "gauge"
		}
		byFamily[p.Family] = append(byFamily[p.Family], p)
	}
	sort.Strings(families)
	bw := bufio.NewWriter(w)
	for _, fam := range families {
		typ := familyType[fam]
		if typ != "counter" && typ != "gauge" {
			typ = "gauge"
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam, typ)
		sample := fam
		if typ == "counter" {
			sample += "_total"
		}
		pts := byFamily[fam]
		sort.Slice(pts, func(i, j int) bool { return labelString(pts[i].Labels) < labelString(pts[j].Labels) })
		for _, p := range pts {
			fmt.Fprintf(bw, "%s%s %s\n", sample, labelString(p.Labels), formatValue(p.Value))
		}
	}
	fmt.Fprint(bw, "# EOF\n")
	return bw.Flush()
}

// ServeOpenMetrics answers a scrape with points as an OpenMetrics exposition,
// buffering so an encoding error can still become a clean 500 instead of a
// torn response. Every /metrics endpoint in the repository goes through it.
func ServeOpenMetrics(w http.ResponseWriter, points []MetricPoint) {
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, points); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ContentType)
	_, _ = buf.WriteTo(w)
}

// labelString renders a label set as {k="v",...}, keys sorted, values
// escaped per the exposition format ("" when empty).
func labelString(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%q", k, labels[k]))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatValue renders a sample value; OpenMetrics wants plain floats
// (NaN/Inf are legal spellings for gauges).
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ValidateOpenMetrics parses an exposition and reports the first syntax
// violation, or the number of samples on success. It checks the properties
// a scraper depends on: every sample belongs to a previously declared
// family, families are contiguous (no interleaving) and declared once,
// counter samples carry the _total suffix, label syntax and float values
// parse, and the exposition ends with exactly "# EOF".
//
// This is the small parser the telemetry-smoke CI job runs against a live
// daemon's /metrics — deliberately strict so a formatting regression fails
// the build rather than a production scrape.
func ValidateOpenMetrics(r io.Reader) (samples int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	seen := make(map[string]bool)
	curFamily, curType := "", ""
	sawEOF := false
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if sawEOF {
			return samples, fmt.Errorf("line %d: content after # EOF", line)
		}
		switch {
		case text == "# EOF":
			sawEOF = true
		case strings.HasPrefix(text, "# TYPE "):
			parts := strings.Fields(text)
			if len(parts) != 4 {
				return samples, fmt.Errorf("line %d: malformed TYPE line %q", line, text)
			}
			fam, typ := parts[2], parts[3]
			if seen[fam] {
				return samples, fmt.Errorf("line %d: family %s declared twice (interleaved?)", line, fam)
			}
			if typ != "gauge" && typ != "counter" && typ != "histogram" &&
				typ != "summary" && typ != "unknown" && typ != "info" && typ != "stateset" {
				return samples, fmt.Errorf("line %d: unknown metric type %q", line, typ)
			}
			seen[fam] = true
			curFamily, curType = fam, typ
		case strings.HasPrefix(text, "# HELP "), strings.HasPrefix(text, "# UNIT "):
			// Metadata lines: tolerated anywhere inside the current family.
		case strings.TrimSpace(text) == "":
			return samples, fmt.Errorf("line %d: blank line", line)
		default:
			name, rest, perr := splitSampleName(text)
			if perr != nil {
				return samples, fmt.Errorf("line %d: %v", line, perr)
			}
			want := curFamily
			if curType == "counter" {
				want += "_total"
			}
			if curFamily == "" || name != want {
				return samples, fmt.Errorf("line %d: sample %q outside its family (current %q, type %q)",
					line, name, curFamily, curType)
			}
			if err := checkValue(rest); err != nil {
				return samples, fmt.Errorf("line %d: %v", line, err)
			}
			samples++
		}
	}
	if err := sc.Err(); err != nil {
		return samples, err
	}
	if !sawEOF {
		return samples, fmt.Errorf("exposition does not end with # EOF")
	}
	return samples, nil
}

// splitSampleName splits a sample line into the metric name (label braces
// consumed and syntax-checked) and the remaining value text.
func splitSampleName(text string) (name, rest string, err error) {
	i := strings.IndexAny(text, "{ ")
	if i < 0 {
		return "", "", fmt.Errorf("malformed sample %q", text)
	}
	name = text[:i]
	if name == "" {
		return "", "", fmt.Errorf("empty metric name in %q", text)
	}
	rest = text[i:]
	if rest[0] == '{' {
		end, err := scanLabels(rest)
		if err != nil {
			return "", "", err
		}
		rest = rest[end:]
	}
	return name, strings.TrimSpace(rest), nil
}

// scanLabels validates a {k="v",...} label block and returns the index
// just past the closing brace.
func scanLabels(s string) (int, error) {
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block in %q", s)
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		// label name
		j := i
		for j < len(s) && (isLabelChar(s[j])) {
			j++
		}
		if j == i || j >= len(s) || s[j] != '=' {
			return 0, fmt.Errorf("malformed label name in %q", s)
		}
		j++ // past '='
		if j >= len(s) || s[j] != '"' {
			return 0, fmt.Errorf("unquoted label value in %q", s)
		}
		j++
		for j < len(s) && s[j] != '"' {
			if s[j] == '\\' {
				j++
			}
			j++
		}
		if j >= len(s) {
			return 0, fmt.Errorf("unterminated label value in %q", s)
		}
		j++ // past closing quote
		if j < len(s) && s[j] == ',' {
			j++
		}
		i = j
	}
}

func isLabelChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// checkValue validates the value (and optional timestamp) field of a
// sample line.
func checkValue(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("want 'value [timestamp]', got %q", rest)
	}
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		return fmt.Errorf("bad sample value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return fmt.Errorf("bad sample timestamp %q", fields[1])
		}
	}
	return nil
}
