// Command perfbench is the repository benchmark. One process runs one
// named workload from a seed through the public entry points and prints
// every metric by name with its unit; the last line of standard output
// is one JSON object with the run's verdict and metrics.
//
//	go run . --workload heap-churn --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 it runs the same workload with facade spans, then
// replays each layer's inbound call stream into that layer's own
// constructor and methods, and reports the per-layer metrics. See
// README.md for the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	seed    uint64
	seconds int
	traced  bool
	workdir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: dbstore, heap-churn or service-mix")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "length of the timed phase (dbstore runs a fixed op count instead)")
	traceMode := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for the durable store and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	sp, err := findSpec(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traceMode == 1, workdir: *workdir}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var res *result
	switch sp.Name {
	case "dbstore":
		res, err = runDBStore(sp, o)
	case "heap-churn":
		res, err = runHeapChurn(sp, o)
	case "service-mix":
		res, err = runServiceMix(sp, o)
	default:
		err = fmt.Errorf("workload %q has no driver", sp.Name)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.print(stdout, o.traced); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.correct() {
		fmt.Fprintf(stderr, "perfbench: %s failed: %d of %d ops failed; %v\n", sp.Name, res.failed, res.attempted, res.broken)
		return 1
	}
	return 0
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports: what a caller of the
// library sees on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"write_p50_us", "us"},
	{"write_p99_us", "us"},
	{"read_p50_us", "us"},
	{"footprint_ratio_max", "ratio"},
	{"moved_bytes_per_byte", "ratio"},
	{"rss_after_gc_mb", "MB"},
}

// perLayer are the metrics a traced run reports. A layer the workload
// does not load reports 0.
var perLayer = []metricDef{
	{"facade.self_ns_per_read", "ns"},
	{"facade.self_us_per_write", "us"},
	{"btl.self_us_per_mutation", "us"},
	{"btl.checkpoints_per_mutation", "ratio"},
	{"btl.checkpoint_self_ms", "ms"},
	{"btl.recovery_rebuild_s", "s"},
	{"btl.checkpoint_p50_ms", "ms"},
	{"btl.checkpoint_p95_ms", "ms"},
	{"btl.recovery_s", "s"},
	{"btl.disk_bytes_per_live_byte", "ratio"},
	{"engine.self_us_per_write", "us"},
	{"engine.flush_write_share", "ratio"},
	{"engine.flush_us_p50", "us"},
	{"engine.flush_us_p99", "us"},
	{"engine.ns_per_read", "ns"},
	{"arena.copy_us_per_write", "us"},
	{"arena.copy_bytes_per_write", "B"},
	{"arena.copies_per_insert", "count"},
	{"arena.copy_fixed_ns", "ns"},
	{"arena.copy_bytes_per_ns", "B/ns"},
	{"arena.copy_fit_r2", "ratio"},
	{"arena.grows", "count"},
	{"arena.grow_ms_total", "ms"},
	{"arena.sync_ms_p50", "ms"},
	{"arena.sync_ms_p99", "ms"},
	{"wal.records_per_mutation", "ratio"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.append_ns_per_record", "ns"},
	{"wal.fsyncs_per_mutation", "ratio"},
	{"wal.fsync_ms_p50", "ms"},
	{"wal.fsync_ms_p99", "ms"},
	{"wal.replay_s", "s"},
	{"trace.min_self_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	// broken lists structural failures (invariants, recovery); any entry
	// fails the run outright.
	broken []string
	values map[string]float64
	// counts holds the sample count behind each percentile metric.
	counts map[string]int
	// extra holds figures printed in the report but not in the result
	// object: workload-specific numbers and diagnostics.
	extra map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result {
	return &result{values: map[string]float64{}, counts: map[string]int{}, extra: map[string]metricValue{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// pct sets a percentile metric and remembers its sample count.
func (r *result) pct(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

func (r *result) note(name string, v float64, unit string) { r.extra[name] = metricValue{v, unit} }

func (r *result) fail(format string, a ...any) {
	r.broken = append(r.broken, fmt.Sprintf(format, a...))
}

func (r *result) correct() bool { return r.failed == 0 && len(r.broken) == 0 && r.attempted > 0 }

// check records an op's error as a failed op.
func (r *result) check(err error) {
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
		}
	}
}

// print writes the report lines and, last, the JSON result object.
func (r *result) print(w io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]metricValue{}}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricValue{v, d.unit}
		line := fmt.Sprintf("%-32s %16.6g %s", d.name, v, d.unit)
		if n, ok := r.counts[d.name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	names := make([]string, 0, len(r.extra))
	for k := range r.extra {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", k, r.extra[k].Value, r.extra[k].Unit)
	}
	fmt.Fprintf(w, "%-32s %16.6g ratio  (%d of %d)\n", "failed_op_ratio", float64(r.failed)/math.Max(1, float64(r.attempted)), r.failed, r.attempted)
	for _, b := range r.broken {
		fmt.Fprintln(w, "FAILED:", b)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
