package benchfmt

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: realloc
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkChurnScaling/amortized/cells=100000         	   20000	      1719 ns/op	      11 B/op	       0 allocs/op
BenchmarkChurnScaling/amortized/cells=1000000-8      	   20000	      2823 ns/op	       8 B/op	       0 allocs/op
BenchmarkChurnScaling/deamortized/cells=1000000-16   	   20000	      4158.5 ns/op
some unrelated line
BenchmarkNot-A-Result garbage
PASS
`

func TestParseBench(t *testing.T) {
	results, err := ParseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(results), results)
	}
	r := results[0]
	if r.Name != "BenchmarkChurnScaling/amortized/cells=100000" || r.Iters != 20000 ||
		r.NsPerOp != 1719 || r.BytesPerOp != 11 || r.AllocsPerOp != 0 {
		t.Fatalf("result 0: %+v", r)
	}
	// -8 / -16 GOMAXPROCS suffixes strip; dashes inside names survive.
	if results[1].Name != "BenchmarkChurnScaling/amortized/cells=1000000" {
		t.Fatalf("result 1 name: %q", results[1].Name)
	}
	if results[2].Name != "BenchmarkChurnScaling/deamortized/cells=1000000" {
		t.Fatalf("result 2 name: %q", results[2].Name)
	}
	if results[2].BytesPerOp != -1 || results[2].AllocsPerOp != -1 {
		t.Fatalf("result 2 should have no -benchmem columns: %+v", results[2])
	}
	if ns, err := NsPerOp(results, "BenchmarkChurnScaling/deamortized/cells=1000000", 0); err != nil || ns != 4158.5 {
		t.Fatalf("NsPerOp: %v %v", ns, err)
	}
	if _, err := NsPerOp(results, "BenchmarkMissing", 0); err == nil {
		t.Fatal("missing benchmark found")
	}
	// Proc counts: absent suffix means 1 proc; -8 and -16 parse out.
	if results[0].Procs != 1 || results[1].Procs != 8 || results[2].Procs != 16 {
		t.Fatalf("procs: got %d/%d/%d, want 1/8/16",
			results[0].Procs, results[1].Procs, results[2].Procs)
	}
}

func TestSplitProcs(t *testing.T) {
	cases := map[string]struct {
		name  string
		procs int
	}{
		"BenchmarkX-8":           {"BenchmarkX", 8},
		"BenchmarkX":             {"BenchmarkX", 1},
		"BenchmarkX-8a":          {"BenchmarkX-8a", 1},
		"BenchmarkA/b=1-128":     {"BenchmarkA/b=1", 128},
		"BenchmarkTrailingDash-": {"BenchmarkTrailingDash-", 1},
	}
	for in, want := range cases {
		if name, procs := splitProcs(in); name != want.name || procs != want.procs {
			t.Errorf("splitProcs(%q) = %q, %d, want %q, %d", in, name, procs, want.name, want.procs)
		}
	}
}

// nsPerOpCase is one NsPerOp lookup and its expected ns/op; want 0 means
// the lookup must miss.
type nsPerOpCase struct {
	name  string
	procs int
	want  float64
}

func checkNsPerOp(t *testing.T, input string, cases []nsPerOpCase) {
	t.Helper()
	results, err := ParseBench(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		got, err := NsPerOp(results, c.name, c.procs)
		if c.want == 0 {
			if err == nil {
				t.Errorf("NsPerOp(%q, %d) = %v, want a miss", c.name, c.procs, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("NsPerOp(%q, %d) = %v, %v, want %v", c.name, c.procs, got, err, c.want)
		}
	}
}

// TestNsPerOpAt covers the -cpu sweep lookup the scaling gate uses: the
// same stripped name resolved at exact proc counts (a missing count
// errors), and with no count given, the fastest across counts.
func TestNsPerOpAt(t *testing.T) {
	sweep := `BenchmarkShardedParallel/mixed       	  30000	       800.0 ns/op
BenchmarkShardedParallel/mixed-8     	  30000	       100.0 ns/op
`
	checkNsPerOp(t, sweep, []nsPerOpCase{
		{"BenchmarkShardedParallel/mixed", 1, 800},
		{"BenchmarkShardedParallel/mixed", 8, 100},
		{"BenchmarkShardedParallel/mixed", 4, 0},
		{"BenchmarkShardedParallel/mixed", 0, 100},
	})
}

// TestMinNsPerOp covers the -count repeat lookup the batch gate uses: the
// fastest of a name's samples, with or without a proc count, a single
// sample passing through, and a missing name.
func TestMinNsPerOp(t *testing.T) {
	repeats := `BenchmarkBatchChurn/perOp    	 9000000	       250.0 ns/op
BenchmarkBatchChurn/perOp    	 9000000	       240.0 ns/op
BenchmarkBatchChurn/perOp    	 9000000	       260.0 ns/op
BenchmarkBatchChurn/batch64  	25000000	       105.0 ns/op
`
	checkNsPerOp(t, repeats, []nsPerOpCase{
		{"BenchmarkBatchChurn/perOp", 0, 240},
		{"BenchmarkBatchChurn/perOp", 1, 240},
		{"BenchmarkBatchChurn/batch64", 0, 105},
		{"BenchmarkBatchChurn/missing", 0, 0},
	})
}

func TestCurrentManifest(t *testing.T) {
	m := CurrentManifest()
	if m.GoVersion == "" || m.GOOS == "" || m.GOARCH == "" || m.GOMAXPROCS < 1 || m.NumCPU < 1 {
		t.Fatalf("incomplete manifest: %+v", m)
	}
}
