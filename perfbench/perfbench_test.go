package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"sort"
	"testing"
)

func TestNearestRankMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 7, 100, 1001} {
		l := newLatencies(n)
		for i := 0; i < n; i++ {
			l.add(rng.Int64N(1_000_000))
		}
		got := sorted(l)
		oracle := make([]int64, n)
		for i, v := range l.v {
			oracle[i] = int64(v)
		}
		sort.Slice(oracle, func(i, j int) bool { return oracle[i] < oracle[j] })
		for _, p := range []float64{1, 25, 50, 90, 95, 99, 100} {
			// Nearest rank: the smallest value with at least p% of the
			// samples at or below it.
			var want int64
			for _, v := range oracle {
				below := 0
				for _, w := range oracle {
					if w <= v {
						below++
					}
				}
				if float64(below) >= p/100*float64(n) {
					want = v
					break
				}
			}
			if g := nearestRank(got, p); g != want {
				t.Errorf("n=%d p%g: got %d, want %d", n, p, g, want)
			}
		}
	}
	if nearestRank(nil, 50) != 0 {
		t.Error("percentile of no samples must be 0")
	}
}

func TestSelfTimeNestedAndAdjacentChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name string
		kids []interval
		want int64
	}{
		{"none", nil, 100},
		{"adjacent", []interval{{10, 30}, {30, 50}}, 60},
		{"nested", []interval{{10, 50}, {20, 30}}, 60},
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"unordered", []interval{{70, 80}, {10, 20}, {15, 25}}, 75},
		{"past the parent", []interval{{0, 130}}, -30},
	}
	for _, c := range cases {
		if got := selfTime(parent, append([]interval(nil), c.kids...)); got != c.want {
			t.Errorf("%s: self %d, want %d", c.name, got, c.want)
		}
	}
}

// TestAnalyzeAttributesLayers grafts a replayed engine call with a
// nested arena child under a facade span and checks every layer's self
// time, with the instrumentation costs zeroed. Its one timed copy
// stands for copyStride copies.
func TestAnalyzeAttributesLayers(t *testing.T) {
	fac := []span{{name: spFacadeWrite, op: 0, parent: -1, weight: 1, start: 0, end: 100}}
	rep := []span{
		{name: spEngineInsert, op: 0, parent: -1, start: 1000, end: 1050, copies: 9, timed: 1, copyBusy: 1},
		{name: spArenaGrow, op: 0, parent: 0, start: 1010, end: 1020},
		{name: spEngineWrite, op: 0, parent: -1, start: 1050, end: 1060},
	}
	a := analyze(fac, rep, calib{})
	want := [numLayers]int64{layerFacade: 40, layerEngine: 42, layerArena: 18}
	if a.self != want {
		t.Fatalf("self times %v, want %v", a.self, want)
	}
	if a.facadeTotal != 100 {
		t.Fatalf("facade total %d, want 100", a.facadeTotal)
	}
	var sum int64
	for _, v := range a.self {
		sum += v
	}
	if sum != a.facadeTotal {
		t.Fatalf("self times sum to %d, not the facade total %d", sum, a.facadeTotal)
	}
}

func TestSeedFixesTheStream(t *testing.T) {
	sp, err := findSpec("heap-churn")
	if err != nil {
		t.Fatal(err)
	}
	stream := func(seed uint64) []churnOp {
		m := newChurnModel(seed, 0, sp.Sizes.dist(), 1<<20, 1, 1<<16)
		var ops []churnOp
		for op, ok := m.fill(); ok; op, ok = m.fill() {
			ops = append(ops, op)
		}
		for i := 0; i < 20000; i++ {
			ops = append(ops, m.step(sp.Mix["read"]))
		}
		return ops
	}
	a, b, c := stream(7), stream(7), stream(8)
	if len(a) != len(b) {
		t.Fatalf("same seed, streams of %d and %d ops", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, streams differ at op %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds gave the same stream")
	}

	db, err := findSpec("dbstore")
	if err != nil {
		t.Fatal(err)
	}
	dbStream := func(seed uint64) []dbCall {
		m := newDBModel(db, seed, 8192)
		for i := 0; i < 256; i++ {
			m.create()
		}
		calls := make([]dbCall, 5000)
		for i := range calls {
			calls[i] = m.next()
		}
		return calls
	}
	x, y, z := dbStream(3), dbStream(3), dbStream(4)
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("dbstore: same seed, streams differ at call %d", i)
		}
	}
	diff := false
	for i := range x {
		diff = diff || x[i] != z[i]
	}
	if !diff {
		t.Fatal("dbstore: different seeds gave the same stream")
	}
}

// TestReplayReproducesFacadeWork drives a heap-churn prefix through the
// facade, replays the regenerated stream into engine.New, and requires
// the same moved bytes and footprint: the replay measures the same work.
func TestReplayReproducesFacadeWork(t *testing.T) {
	sp, err := findSpec("heap-churn")
	if err != nil {
		t.Fatal(err)
	}
	sp.LiveBytes = 2 << 20
	sp.Sizes.Max = 8192
	o := options{seed: 5, traced: true}
	const calls = 30000
	reserve := calls + int(sp.LiveBytes/sp.Sizes.Min)
	r, m, err := buildHeapChurn(sp, o.seed, reserve)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, sp.Sizes.Max)
	for i := 0; i < calls; i++ {
		op := m.step(sp.Mix["read"])
		switch op.kind {
		case opRead:
			_, err = r.Read(op.id, buf[:op.size])
		case opInsert:
			fillPayload(buf[:op.size], o.seed, uint64(op.id))
			if err = r.Insert(op.id, op.size); err == nil {
				err = r.Write(op.id, buf[:op.size])
			}
		case opDelete:
			err = r.Delete(op.id)
		}
		if err != nil {
			t.Fatalf("facade op %d: %v", i, err)
		}
	}
	if r.Flushes() == 0 {
		t.Fatal("the prefix ran no flush; it proves nothing")
	}
	a, st, e, err := replayHeapChurn(sp, o, reserve, calls, calls)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Data().Counters().BytesMoved, r.BytesMoved(); got != want {
		t.Errorf("replay moved %d bytes, the facade %d", got, want)
	}
	if got, want := e.Footprint(), r.Footprint(); got != want {
		t.Errorf("replay footprint %d, the facade %d", got, want)
	}
	if st.bytes == 0 || len(a.spans) == 0 {
		t.Errorf("traced replay recorded %d copy bytes and %d spans", st.bytes, len(a.spans))
	}
}

// TestBenchmarkRecordMatches pins BENCHMARK.json to the workloads and
// metric lists the program reports.
func TestBenchmarkRecordMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to perfbench/:", err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	rec, err := loadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(rec.Workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, workloads.json %d", len(bench.Workloads), len(rec.Workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != rec.Workloads[i].Name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, rec.Workloads[i].Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s %s vs %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
	for _, p := range rec.Predictions {
		found := false
		for _, d := range perLayer {
			found = found || d.name == p.Metric
		}
		if !found {
			t.Errorf("prediction for unknown metric %s", p.Metric)
		}
	}
}
