package main

import (
	"io"
	"strings"
	"testing"

	"realloc/internal/benchfmt"
)

// passing holds, per lane, go test -bench output on which every check
// of the lane passes, in the format the CI benchmark steps print.
var passing = map[string]string{
	"churn": `goos: linux
goarch: amd64
pkg: realloc
BenchmarkChurnScaling/amortized/cells=10000-2         	   20000	       888.3 ns/op	      10 B/op	       0 allocs/op
BenchmarkChurnScaling/amortized/cells=100000-2        	   20000	       990.7 ns/op	      11 B/op	       0 allocs/op
BenchmarkChurnScaling/amortized/cells=1000000-2       	   20000	      1189 ns/op	       5 B/op	       0 allocs/op
BenchmarkChurnScaling/checkpointed/cells=100000-2     	   20000	      2613 ns/op	      15 B/op	       0 allocs/op
BenchmarkChurnScaling/checkpointed/cells=1000000-2    	   20000	      3506 ns/op	       5 B/op	       0 allocs/op
BenchmarkChurnScaling/deamortized/cells=100000-2      	   20000	      2785 ns/op	      13 B/op	       0 allocs/op
BenchmarkChurnScaling/deamortized/cells=1000000-2     	   20000	      3375 ns/op	       3 B/op	       0 allocs/op
BenchmarkChurnScaling/fcs/cells=100000-2              	   20000	       550.1 ns/op	       5 B/op	       0 allocs/op
BenchmarkChurnScaling/fcs/cells=1000000-2             	   20000	       656.2 ns/op	       0 B/op	       0 allocs/op
PASS
`,
	"scaling": `BenchmarkShardedParallel/read           	   30000	        62.29 ns/op	       0 B/op	       0 allocs/op
BenchmarkShardedParallel/read-8         	   30000	        14.40 ns/op	       0 B/op	       0 allocs/op
BenchmarkShardedParallel/mixed          	   30000	       800.0 ns/op	       5 B/op	       0 allocs/op
BenchmarkShardedParallel/mixed-2        	   30000	       400.0 ns/op	      18 B/op	       0 allocs/op
BenchmarkShardedParallel/mixed-8        	   30000	       100.0 ns/op	      12 B/op	       0 allocs/op
`,
	"overhead": `BenchmarkChurnTelemetry/amortized/off-2         	   30000	       996.7 ns/op	       7 B/op	       0 allocs/op
BenchmarkChurnTelemetry/amortized/on-2          	   30000	      1003 ns/op	       7 B/op	       0 allocs/op
BenchmarkChurnTelemetry/amortized_heap/off-2    	   30000	      1532 ns/op	       7 B/op	       0 allocs/op
BenchmarkChurnTelemetry/amortized_heap/on-2     	   30000	      1325 ns/op	       7 B/op	       0 allocs/op
BenchmarkChurnTelemetry/deamortized/off-2       	   30000	      2921 ns/op	       9 B/op	       0 allocs/op
BenchmarkChurnTelemetry/deamortized/on-2        	   30000	      3073 ns/op	       9 B/op	       0 allocs/op
BenchmarkChurnTelemetry/deamortized_heap/off-2  	   30000	      3756 ns/op	       9 B/op	       0 allocs/op
BenchmarkChurnTelemetry/deamortized_heap/on-2   	   30000	      3762 ns/op	       9 B/op	       0 allocs/op
`,
	"batch": `BenchmarkBatchChurn/perOp-2         	11712164	       223.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkBatchChurn/perOp-2         	11170408	       230.9 ns/op	       0 B/op	       0 allocs/op
BenchmarkBatchChurn/perOp-2         	11110522	       228.7 ns/op	       0 B/op	       0 allocs/op
BenchmarkBatchChurn/batch64-2       	29379579	        78.11 ns/op	       0 B/op	       0 allocs/op
BenchmarkBatchChurn/batch64-2       	30883618	        78.26 ns/op	       0 B/op	       0 allocs/op
BenchmarkBatchChurn/batch64-2       	35680323	        68.70 ns/op	       0 B/op	       0 allocs/op
`,
	"bytes": `BenchmarkChurnBackend/pods14/metered-2         	   30000	      1000 ns/op	       7 B/op	       0 allocs/op
BenchmarkChurnBackend/pods14/heap-2            	   30000	      1222 ns/op	       7 B/op	       0 allocs/op
BenchmarkChurnBackend/fcs/metered-2            	   30000	       485.3 ns/op	       3 B/op	       0 allocs/op
BenchmarkChurnBackend/fcs/heap-2               	   30000	       530.0 ns/op	       3 B/op	       0 allocs/op
`,
	"durable": `BenchmarkDurableChurn/heap-2         	   13705	     78978 ns/op	   64389 B/op	      10 allocs/op
BenchmarkDurableChurn/wal-2          	    6009	    257408 ns/op	     433 B/op	      12 allocs/op
BenchmarkWALReplay/ops=100000-2      	      82	  14996933 ns/op	 219.21 MB/s	 4264226 B/op	   17296 allocs/op
`,
}

// TestLanes feeds every lane three kinds of input: canned output that
// passes, the same output with one check's operand moved one step past
// its limit, and the same output missing one operand. Only the first
// may pass.
func TestLanes(t *testing.T) {
	for _, l := range lanes {
		t.Run(l.id, func(t *testing.T) {
			results, err := benchfmt.ParseBench(strings.NewReader(passing[l.id]))
			if err != nil {
				t.Fatal(err)
			}
			findings, pass := evaluate(l, results, io.Discard)
			if !pass {
				t.Fatalf("canned input fails: %v", findings)
			}
			for _, c := range l.checks {
				if _, pass := evaluate(l, pastLimit(t, results, c), io.Discard); pass {
					t.Errorf("%s one step past its limit passes", c.label)
				}
				operands := map[string]int{c.num: c.numProcs}
				if c.den != "" {
					operands[c.den] = c.denProcs
				}
				for name, procs := range operands {
					if _, pass := evaluate(l, without(results, name, procs), io.Discard); pass {
						t.Errorf("%s passes without %s (procs %d)", c.label, name, procs)
					}
				}
			}
		})
	}
}

// pastLimit returns a copy of results in which c's numerator reads one
// step (0.01 of the ratio, or of a millisecond) past c's limit.
func pastLimit(t *testing.T, results []benchfmt.Result, c check) []benchfmt.Result {
	t.Helper()
	ns := (c.max + 0.01) * 1e6
	if c.den != "" {
		den, err := benchfmt.NsPerOp(results, c.den, c.denProcs)
		if err != nil {
			t.Fatal(err)
		}
		if c.min > 0 {
			ns = den * (c.min - 0.01)
		} else {
			ns = den * (c.max + 0.01)
		}
	}
	out := append([]benchfmt.Result(nil), results...)
	for i, r := range out {
		if r.Name == c.num && (c.numProcs == 0 || r.Procs == c.numProcs) {
			out[i].NsPerOp = ns
		}
	}
	return out
}

// without returns results minus those named name (at procs, if > 0).
func without(results []benchfmt.Result, name string, procs int) []benchfmt.Result {
	var out []benchfmt.Result
	for _, r := range results {
		if r.Name != name || procs > 0 && r.Procs != procs {
			out = append(out, r)
		}
	}
	return out
}

// TestScalingFloor pins the floor to the rule CI applied in shell
// before it moved here: 4 from 8 threads, ⌊n/2⌋ below, 0.35 on one.
func TestScalingFloor(t *testing.T) {
	for n, want := range map[int]float64{1: 0.35, 2: 1, 3: 1, 4: 2, 7: 3, 8: 4, 16: 4} {
		if got := scalingFloor(n); got != want {
			t.Errorf("scalingFloor(%d) = %v, want %v", n, got, want)
		}
	}
}
