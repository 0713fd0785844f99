package exp

import (
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Seed: 1, Quick: true} }

// TestAllExperimentsRun executes the full suite at reduced scale; every
// experiment must complete and render a non-empty report.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(quickCfg())
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if len(res.Text) == 0 {
				t.Fatalf("%s produced no report", e.ID)
			}
		})
	}
}

// TestRunAll exercises the all-experiments driver used by the CLI.
func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll repeats every experiment; skipped in -short mode")
	}
	var sb strings.Builder
	if err := RunAll(quickCfg(), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, e := range All() {
		if !strings.Contains(out, "== "+e.ID+":") {
			t.Errorf("RunAll output missing %s", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E1"); !ok {
		t.Fatal("E1 not found")
	}
	if _, ok := ByID("e5"); !ok {
		t.Fatal("lookup should be case-insensitive")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("bogus experiment found")
	}
}

// TestE1Shape asserts the footprint bound findings.
func TestE1Shape(t *testing.T) {
	res, err := E1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []string{"amortized", "checkpointed", "deamortized"} {
		for _, eps := range []string{"0.5", "0.25", "0.1", "0.05"} {
			key := variant + "/" + eps + "/structRatio"
			ratio, ok := res.Findings[key]
			if !ok {
				t.Fatalf("missing finding %s", key)
			}
			var bound float64
			switch eps {
			case "0.5":
				bound = 1.5
			case "0.25":
				bound = 1.25
			case "0.1":
				bound = 1.1
			case "0.05":
				bound = 1.05
			}
			if ratio > bound+0.02 {
				t.Errorf("%s: ratio %.4f exceeds %v", key, ratio, bound)
			}
		}
	}
}

// TestE3Shape asserts the crossover: logcompact's unit cost per deletion
// grows ~linearly with delta; classgap's linear ratio grows with
// log(delta); the cost-oblivious allocator stays bounded everywhere.
func TestE3Shape(t *testing.T) {
	res, err := E3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	lcSmall := res.Findings["unitkiller/64/logcompact/perDeletion"]
	lcBig := res.Findings["unitkiller/1024/logcompact/perDeletion"]
	if lcBig < 4*lcSmall {
		t.Errorf("logcompact unit cost/deletion should grow ~linearly with delta: %v -> %v", lcSmall, lcBig)
	}
	if cg := res.Findings["unitkiller/1024/classgap/perDeletion"]; cg > 4 {
		t.Errorf("classgap unit cost/deletion should be O(1), got %v", cg)
	}
	// The cost-oblivious guarantee is the *amortized* competitive ratio:
	// it must stay bounded as delta grows (individual deletions may still
	// trigger large flushes — deamortization, E7, is the per-request fix).
	coSmall := res.Findings["unitkiller/64/cost-oblivious/unit"]
	coBig := res.Findings["unitkiller/1024/cost-oblivious/unit"]
	if coBig > 2*coSmall+10 {
		t.Errorf("cost-oblivious unit ratio should not grow with delta: %v -> %v", coSmall, coBig)
	}
	for _, delta := range []string{"64", "256", "1024"} {
		col := res.Findings["linearkiller/"+delta+"/cost-oblivious/linear"]
		if col > 40 {
			t.Errorf("cost-oblivious linear ratio too large on linear-killer(%s): %v", delta, col)
		}
	}
	// The crossovers themselves.
	if res.Findings["unitkiller/1024/logcompact/perDeletion"] <
		4*res.Findings["unitkiller/1024/classgap/perDeletion"] {
		t.Error("expected logcompact to lose badly per deletion at delta=1024")
	}
	cgSmall := res.Findings["linearkiller/64/classgap/linear"]
	cgBig := res.Findings["linearkiller/1024/classgap/linear"]
	if cgBig <= cgSmall {
		t.Errorf("classgap linear ratio should grow with log(delta): %v -> %v", cgSmall, cgBig)
	}
}

// TestE4Shape asserts no-move footprint growth vs the reallocator.
func TestE4Shape(t *testing.T) {
	res, err := E4(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	ffSmall := res.Findings["4/firstfit/finalRatio"]
	ffBig := res.Findings["10/firstfit/finalRatio"]
	if ffBig <= ffSmall {
		t.Errorf("firstfit footprint ratio should grow with maxExp: %v -> %v", ffSmall, ffBig)
	}
	for _, exp := range []string{"4", "6", "8", "10"} {
		co := res.Findings[exp+"/cost-oblivious/finalRatio"]
		if co > 1.27 {
			t.Errorf("cost-oblivious final ratio at maxExp=%s: %v > 1+eps", exp, co)
		}
		if ff := res.Findings[exp+"/firstfit/finalRatio"]; ff < co {
			t.Errorf("firstfit should not beat the reallocator at maxExp=%s (%v < %v)", exp, ff, co)
		}
	}
}

// TestE5Shape asserts the defragmentation space bounds.
func TestE5Shape(t *testing.T) {
	res, err := E5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []string{"0.5", "0.25", "0.1"} {
		if res.Findings[eps+"/budgetOK"] != 1 {
			t.Errorf("eps=%s: peak exceeded the (1+eps)V+Delta budget", eps)
		}
	}
	if naive := res.Findings["0.1/naivePeakOverV"]; naive < 1.8 {
		t.Errorf("naive defrag should need ~2V, got %vV", naive)
	}
	if ours := res.Findings["0.1/peakOverV"]; ours > 1.25 {
		t.Errorf("cost-oblivious defrag peak %vV too large for eps=0.1", ours)
	}
}

// TestE6Shape asserts checkpoints per flush scale with 1/eps'.
func TestE6Shape(t *testing.T) {
	res, err := E6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []string{"0.5", "0.25", "0.1", "0.05"} {
		maxC := res.Findings[eps+"/maxCkptPerFlush"]
		inv := res.Findings[eps+"/invEpsPrime"]
		if maxC > 6*inv+8 {
			t.Errorf("eps=%s: max checkpoints per flush %v exceeds O(1/eps')=%v", eps, maxC, inv)
		}
	}
}

// TestE7Shape asserts the deamortized worst-case cap.
func TestE7Shape(t *testing.T) {
	res, err := E7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Findings["deamortized/violations"]; v != 0 {
		t.Errorf("deamortized per-op bound violated %v times", v)
	}
	de := res.Findings["deamortized/maxOpVolume"]
	ck := res.Findings["checkpointed/maxOpVolume"]
	if de >= ck {
		t.Errorf("deamortization should shrink the worst op (deamortized %v vs checkpointed %v)", de, ck)
	}
	// Lemma 3.4: arrivals during a flush bounded by ~eps' of V_f.
	frac := res.Findings["deamortized/flushArrivalFrac"]
	epsP := res.Findings["deamortized/epsPrime"]
	if frac > epsP+0.05 {
		t.Errorf("mid-flush arrival fraction %v exceeds eps'=%v", frac, epsP)
	}
}

// TestE8Shape asserts the lower bound is realized under linear cost.
func TestE8Shape(t *testing.T) {
	res, err := E8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"amortized", "deamortized", "logcompact", "classgap"} {
		for _, delta := range []string{"256", "1024", "4096"} {
			if r := res.Findings[delta+"/"+alg+"/finalRatio"]; r > 4.2 {
				t.Errorf("%s did not maintain a small footprint on the adversary (ratio %v)", alg, r)
				continue
			}
			norm := res.Findings[delta+"/"+alg+"/linear"]
			if norm < 0.2 {
				t.Errorf("%s at delta=%s: max single-op linear cost %v*f(delta), expected Omega(f(delta))", alg, delta, norm)
			}
		}
	}
}

// TestE11Shape asserts the end-to-end database scenario: bounded
// footprint, media-oblivious competitive cost, and intact recovery.
func TestE11Shape(t *testing.T) {
	res, err := E11(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"checkpointed", "deamortized"} {
		if res.Findings[v+"/recoveredOK"] != 1 {
			t.Errorf("%s: recovery failed", v)
		}
		if r := res.Findings[v+"/footprintRatio"]; r > 1.30 {
			t.Errorf("%s: footprint ratio %v", v, r)
		}
		// One run, four media: every ratio bounded.
		for _, medium := range []string{"ram", "ssd", "hdd", "tape"} {
			if ratio := res.Findings[v+"/"+medium+"/ratio"]; ratio > 200 {
				t.Errorf("%s under %s: ratio %v unbounded", v, medium, ratio)
			}
		}
	}
}

// TestE12Shape asserts the premium is a modest constant on both axes.
func TestE12Shape(t *testing.T) {
	res, err := E12(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Findings["premium/linear"]; p <= 0 || p > 100 {
		t.Errorf("linear premium %v out of plausible range", p)
	}
	if p := res.Findings["premium/unit"]; p <= 0 || p > 100 {
		t.Errorf("unit premium %v out of plausible range", p)
	}
	// The oblivious allocator must be bounded on both axes.
	for _, eps := range []string{"0.5", "0.25"} {
		if u := res.Findings["cost-oblivious/"+eps+"/unit"]; u > 100 {
			t.Errorf("unit ratio %v at eps=%s", u, eps)
		}
		if l := res.Findings["cost-oblivious/"+eps+"/linear"]; l > 100 {
			t.Errorf("linear ratio %v at eps=%s", l, eps)
		}
	}
}

// TestE9Renders sanity-checks the figure outputs.
func TestE9Renders(t *testing.T) {
	res, err := E9(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Findings["fig1/after"] >= res.Findings["fig1/before"] {
		t.Errorf("figure 1 must show the footprint shrinking: %v -> %v",
			res.Findings["fig1/before"], res.Findings["fig1/after"])
	}
	for _, want := range []string{"Figure 1", "Figure 2", "Figure 3", "flush begins"} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("E9 output missing %q", want)
		}
	}
}

// TestE13Shape asserts the concurrency experiment produces throughput
// for every configuration and that its structural checks held (E13
// errors out on any end-state divergence). Speedup magnitudes are
// machine-dependent and not asserted.
func TestE13Shape(t *testing.T) {
	res, err := E13(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"shards/1/opsPerSec", "shards/2/opsPerSec",
		"shards/4/opsPerSec", "shards/8/opsPerSec",
	} {
		if res.Findings[key] <= 0 {
			t.Errorf("%s = %v, want > 0", key, res.Findings[key])
		}
	}
	for _, n := range []string{"2", "4", "8"} {
		if s := res.Findings["shards/"+n+"/speedup"]; s <= 0 {
			t.Errorf("speedup at %s shards = %v, want > 0", n, s)
		}
	}
}

// TestE14Shape asserts the rebalancing experiment's headline claims: the
// static partition's live volume concentrates past 4x the mean while
// rebalancing holds the spread within 2x, the footprint bound survives
// the migrations, and objects actually moved. Throughput magnitudes are
// machine-dependent and only checked for presence.
func TestE14Shape(t *testing.T) {
	res, err := E14(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Findings["static/maxSpread"]; s <= 4 {
		t.Errorf("static spread = %.2fx, want > 4x", s)
	}
	if s := res.Findings["rebalanced/maxSpread"]; s > 2 {
		t.Errorf("rebalanced spread = %.2fx, want <= 2x", s)
	}
	// eps=0.25 plus the per-shard additive terms (8 shards, Delta <= 128,
	// V ~= 40000 in the sampled steady half).
	const bound = 1.25 + 8*128.0/40000 + 0.02
	for _, cfg := range []string{"static", "rebalanced"} {
		if r := res.Findings[cfg+"/maxFootprintRatio"]; r <= 0 || r > bound {
			t.Errorf("%s footprint ratio = %v, want in (0, %v]", cfg, r, bound)
		}
	}
	if m := res.Findings["rebalanced/migratedObjects"]; m < 1 {
		t.Errorf("no objects migrated (%v)", m)
	}
	for _, key := range []string{"static/opsPerSec", "rebalanced/opsPerSec"} {
		if res.Findings[key] <= 0 {
			t.Errorf("%s = %v, want > 0", key, res.Findings[key])
		}
	}
}

// TestE15Shape asserts the lock-free scaling experiment produces a
// throughput figure for every workload×workers cell and that its
// structural checks held (E15 errors out on lost objects, live-set
// divergence, or invariant violations). Speedup magnitudes are
// machine-dependent and only checked for presence.
func TestE15Shape(t *testing.T) {
	res, err := E15(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []string{"read", "mixed", "churn"} {
		for _, w := range []string{"1", "2", "4", "8"} {
			if v := res.Findings[sc+"/"+w+"/opsPerSec"]; v <= 0 {
				t.Errorf("%s/%s/opsPerSec = %v, want > 0", sc, w, v)
			}
			if v := res.Findings[sc+"/"+w+"/speedup"]; v <= 0 {
				t.Errorf("%s/%s/speedup = %v, want > 0", sc, w, v)
			}
		}
	}
}

// TestE16Shape asserts the cross-core sweep's bounds: every core keeps
// the quiescent footprint ratio within 1+eps on every workload, and the
// successor core's cost column stays within its O(1/eps) budget. The
// Core filter must restrict the panel and reject unknown names.
func TestE16Shape(t *testing.T) {
	res, err := E16(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"uniform", "zipf", "adversarial"} {
		for _, c := range []string{"pods14", "fcs"} {
			for _, eps := range []string{"0.5", "0.25", "0.1"} {
				key := wl + "/" + c + "/" + eps
				ratio, ok := res.Findings[key+"/quiescentRatio"]
				if !ok {
					t.Fatalf("missing finding %s/quiescentRatio", key)
				}
				var bound float64
				switch eps {
				case "0.5":
					bound = 1.5
				case "0.25":
					bound = 1.25
				case "0.1":
					bound = 1.1
				}
				if ratio > bound {
					t.Errorf("%s: quiescent ratio %v over %v", key, ratio, bound)
				}
				if c == "fcs" {
					var e float64
					switch eps {
					case "0.5":
						e = 0.5
					case "0.25":
						e = 0.25
					case "0.1":
						e = 0.1
					}
					if cost := res.Findings[key+"/costRatio"]; cost > 10/e+4 {
						t.Errorf("%s: cost ratio %v over O(1/eps) budget %v", key, cost, 10/e+4)
					}
				}
			}
		}
	}

	cfg := quickCfg()
	cfg.Core = "fcs"
	only, err := E16(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for key := range only.Findings {
		if strings.Contains(key, "/pods14/") {
			t.Errorf("Core=fcs run still produced %s", key)
		}
	}
	cfg.Core = "bogus"
	if _, err := E16(cfg); err == nil || !strings.Contains(err.Error(), "unknown core") {
		t.Errorf("Core=bogus error = %v, want unknown core", err)
	}
}
