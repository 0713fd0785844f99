// Command benchgate is the CI benchmark-regression gate. It reads `go
// test -bench` output (a file or stdin), evaluates one lane of the gate
// table below, and writes a BENCH_ci_<lane>.json trajectory record
// (schema: internal/benchfmt), so every CI run leaves a comparable
// artifact instead of a log line that disappears with the job:
//
//	go test -run '^$' -bench BenchmarkChurnScaling -benchtime 20000x . | \
//	    benchgate -lane churn [-in -] [-out BENCH_ci_churn.json]
//
// .github/workflows/ci.yml holds the benchmark command that feeds each
// lane. A check divides one result's ns/op by another's and compares
// the ratio with a constant bound; where a name has several results
// (-count repeats), it takes their minimum. A lane fails (exit 1) when
// any check is out of bounds or misses an operand: a renamed benchmark
// must not pass the gate. The record holds the ns/op of every result in
// the input, keyed by name and -cpu count, and each check's value and
// limit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"realloc/internal/benchfmt"
)

// A lane is one CI gate: the checks one benchmark command's output must
// pass, recorded as BENCH_ci_<id>.json.
type lane struct {
	id, title, claim string
	checks           []check
}

// A check gates the ns/op of result num over that of result den: the
// ratio must be at most max, or at least min (exactly one is set). A
// check with no den gates num's own time in milliseconds. A nonzero
// procs pins its result to that -cpu count.
type check struct {
	label              string
	num, den           string
	numProcs, denProcs int
	max, min           float64
}

// lanes is the gate table. The churn lane holds per-op cost near-flat
// in live volume (each request's reallocation stays within O(1/ε) of
// its allocation cost at any volume); the bytes lane prices the
// moved-volume unit in real memmoves.
var lanes = []lane{{
	id: "churn", title: "CI churn-scaling gate",
	claim: "per-op churn cost grows at most 4x (3x deamortized) from 1e5 to 1e6 live cells",
	checks: []check{
		twin("BenchmarkChurnScaling", "amortized", "cells=1000000", "cells=100000", 4),
		twin("BenchmarkChurnScaling", "checkpointed", "cells=1000000", "cells=100000", 4),
		twin("BenchmarkChurnScaling", "deamortized", "cells=1000000", "cells=100000", 3),
		twin("BenchmarkChurnScaling", "fcs", "cells=1000000", "cells=100000", 4),
	},
}, {
	id: "scaling", title: "CI parallel-scaling gate",
	claim: "sharded mixed throughput at 8 procs is at least the CPU-derated floor (4x from 8 CPUs) times its 1-proc throughput",
	checks: []check{{label: "mixed",
		num: "BenchmarkShardedParallel/mixed", numProcs: 1,
		den: "BenchmarkShardedParallel/mixed", denProcs: 8,
		min: scalingFloor(runtime.NumCPU())}},
}, {
	id: "overhead", title: "CI telemetry-overhead gate",
	claim: "telemetry-on churn stays within 1.10x of telemetry-off per variant, metered and heap",
	checks: []check{
		twin("BenchmarkChurnTelemetry", "amortized", "on", "off", 1.10),
		twin("BenchmarkChurnTelemetry", "amortized_heap", "on", "off", 1.10),
		twin("BenchmarkChurnTelemetry", "deamortized", "on", "off", 1.10),
		twin("BenchmarkChurnTelemetry", "deamortized_heap", "on", "off", 1.10),
	},
}, {
	id: "batch", title: "CI batched-submission gate",
	claim: "64-op batches through Apply cost <= 1/2x of the same churn submitted per op",
	checks: []check{{label: "speedup",
		num: "BenchmarkBatchChurn/perOp", den: "BenchmarkBatchChurn/batch64", min: 2}},
}, {
	id: "bytes", title: "CI real-backend cost gate",
	claim: "churn on the heap arena (real memmoves) stays within 1.75x of the metered backend per core",
	checks: []check{
		twin("BenchmarkChurnBackend", "pods14", "heap", "metered", 1.75),
		twin("BenchmarkChurnBackend", "fcs", "heap", "metered", 1.75),
	},
}, {
	id: "durable", title: "CI durability gate",
	claim: "durable churn stays within 40x of the heap backend; 1e5-record WAL replay under 500ms",
	checks: []check{
		{label: "churn", num: "BenchmarkDurableChurn/wal", den: "BenchmarkDurableChurn/heap", max: 40},
		{label: "replay", num: "BenchmarkWALReplay/ops=100000", max: 500},
	},
}}

// twin gates family/label/num over family/label/den at most limit.
func twin(family, label, num, den string, limit float64) check {
	p := family + "/" + label + "/"
	return check{label: label, num: p + num, den: p + den, max: limit}
}

// scalingFloor is the scaling lane's minimum 8-proc/1-proc speedup on n
// CPUs. 4x needs 8 hardware threads; below that 8 procs can at best
// scale n-fold, so the floor derates to ⌊n/2⌋. On one thread there is
// no parallelism to gate, only time-slicing overhead to bound: 0.35
// holds the measured 8-proc mixed floor.
func scalingFloor(n int) float64 {
	switch {
	case n >= 8:
		return 4
	case n >= 2:
		return float64(n / 2)
	default:
		return 0.35
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	ids := make([]string, len(lanes))
	for i, l := range lanes {
		ids[i] = l.id
	}
	var (
		laneID = flag.String("lane", "", "gate lane to evaluate: "+strings.Join(ids, ", "))
		in     = flag.String("in", "-", "go test -bench output to read (- for stdin)")
		out    = flag.String("out", "", "trajectory record to write (default BENCH_ci_<lane>.json)")
	)
	flag.Parse()
	var l *lane
	for i := range lanes {
		if lanes[i].id == *laneID {
			l = &lanes[i]
		}
	}
	if l == nil {
		return fail(fmt.Errorf("unknown -lane %q (one of %s)", *laneID, strings.Join(ids, ", ")))
	}
	if *out == "" {
		*out = "BENCH_ci_" + l.id + ".json"
	}

	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		src = f
	}
	results, err := benchfmt.ParseBench(src)
	if err != nil {
		return fail(err)
	}

	findings, pass := evaluate(*l, results, os.Stdout)
	if err := writeRecord(*out, *l, findings); err != nil {
		return fail(err)
	}
	if !pass {
		fmt.Fprintf(os.Stderr, "benchgate: %s lane failed, see above\n", l.id)
		return 1
	}
	return 0
}

// evaluate runs l's checks over results, printing one line per check to
// w. It returns the record's findings and whether every check passed.
func evaluate(l lane, results []benchfmt.Result, w io.Writer) (map[string]float64, bool) {
	findings := map[string]float64{}
	for _, r := range results {
		// r itself matches, so the lookup cannot miss.
		findings[fmt.Sprintf("ns_per_op/%s/p%d", r.Name, r.Procs)], _ = benchfmt.NsPerOp(results, r.Name, r.Procs)
	}
	pass := true
	for _, c := range l.checks {
		v, unit, err := c.value(results)
		if err != nil {
			fmt.Fprintf(w, "%s: FAIL: %v; a renamed benchmark must not pass the gate\n", c.label, err)
			pass = false
			continue
		}
		bound, kind, ok := c.max, "max", v <= c.max
		if c.min > 0 {
			bound, kind, ok = c.min, "min", v >= c.min
		}
		status := "ok"
		if !ok {
			status, pass = "FAIL", false
		}
		findings[c.label+"/"+unit] = v
		findings[c.label+"/"+kind] = bound
		fmt.Fprintf(w, "%s: %s %.3g (%s %g) %s\n", c.label, unit, v, kind, bound, status)
	}
	return findings, pass
}

// value is c's ratio, or num's milliseconds when c has no den.
func (c check) value(results []benchfmt.Result) (float64, string, error) {
	num, err := benchfmt.NsPerOp(results, c.num, c.numProcs)
	if err != nil {
		return 0, "", err
	}
	if c.den == "" {
		return num / 1e6, "ms", nil
	}
	den, err := benchfmt.NsPerOp(results, c.den, c.denProcs)
	if err != nil {
		return 0, "", err
	}
	return num / den, "ratio", nil
}

// writeRecord persists l's trajectory record to out.
func writeRecord(out string, l lane, findings map[string]float64) error {
	manifest := benchfmt.CurrentManifest()
	buf, err := json.MarshalIndent(benchfmt.Record{
		ID:        "ci_" + l.id,
		Title:     l.title,
		Claim:     l.claim,
		Timestamp: time.Now().UTC(),
		GoVersion: manifest.GoVersion,
		Findings:  findings,
		Manifest:  manifest,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchgate: wrote %s\n", out)
	return nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	return 1
}
