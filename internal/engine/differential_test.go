package engine

import (
	"testing"

	"realloc/internal/trace"
	"realloc/internal/workload"
)

// contender is one engine under cross-core test, with its own metrics
// and the core it was configured with.
type contender struct {
	name string
	core Core
	eng  Engine
	met  *trace.Metrics
}

// newContenders builds the N-way panel the oracle compares: the PODS'14
// reference in its amortized and deamortized variants, and the FCS
// successor core.
func newContenders(t *testing.T, eps float64) []*contender {
	t.Helper()
	mk := func(name string, cfg Config) *contender {
		m := trace.NewMetrics()
		cfg.Epsilon = eps
		cfg.Recorder = m
		cfg.Paranoid = true
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return &contender{name: name, core: cfg.Core, eng: e, met: m}
	}
	return []*contender{
		mk("pods14/amortized", Config{Core: PODS14, Variant: Amortized}),
		mk("pods14/deamortized", Config{Core: PODS14, Variant: Deamortized}),
		mk("fcs", Config{Core: FCS}),
	}
}

// compareQuiescent drains every engine and cross-checks all externally
// observable allocation state against the reference model: the live id
// set, each object's size, and the derived aggregates. Placement
// addresses are layout policy — each core's own invariant checker vouches
// for its layout — but what the caller can observe must agree exactly.
func compareQuiescent(t *testing.T, cs []*contender, ref map[ID]int64) {
	t.Helper()
	var vol, delta int64
	for _, size := range ref {
		vol += size
		if size > delta {
			delta = size
		}
	}
	for _, c := range cs {
		if err := c.eng.Drain(); err != nil {
			t.Fatalf("%s: drain: %v", c.name, err)
		}
		if err := c.eng.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := c.eng.Len(); got != len(ref) {
			t.Fatalf("%s: Len = %d, reference %d", c.name, got, len(ref))
		}
		if got := c.eng.Volume(); got != vol {
			t.Fatalf("%s: Volume = %d, reference %d", c.name, got, vol)
		}
		if got := c.eng.Delta(); got < delta {
			t.Fatalf("%s: Delta = %d, reference at least %d", c.name, got, delta)
		}
		for id, size := range ref {
			if !c.eng.Has(id) {
				t.Fatalf("%s: object %d missing", c.name, id)
			}
			if got, ok := c.eng.SizeOf(id); !ok || got != size {
				t.Fatalf("%s: SizeOf(%d) = %d,%v, reference %d", c.name, id, got, ok, size)
			}
			if ext, ok := c.eng.Extent(id); !ok || ext.Size != size {
				t.Fatalf("%s: Extent(%d) = %v,%v, reference size %d", c.name, id, ext, ok, size)
			}
		}
	}
}

// driveAll replays one materialized op sequence into every engine,
// tracking the reference live set, and compares at quiescent checkpoints.
func driveAll(t *testing.T, cs []*contender, ops []workload.Op, checkpointEvery int) (reqVol int64) {
	t.Helper()
	ref := map[ID]int64{}
	for i, op := range ops {
		for _, c := range cs {
			var err error
			if op.Insert {
				err = c.eng.Insert(op.ID, op.Size)
			} else {
				err = c.eng.Delete(op.ID)
			}
			if err != nil {
				t.Fatalf("%s: op %d (%+v): %v", c.name, i, op, err)
			}
		}
		if op.Insert {
			ref[op.ID] = op.Size
			reqVol += op.Size
		} else {
			reqVol += ref[op.ID]
			delete(ref, op.ID)
		}
		if (i+1)%checkpointEvery == 0 {
			compareQuiescent(t, cs, ref)
		}
	}
	compareQuiescent(t, cs, ref)
	return reqVol
}

// checkFCSCostBound asserts the successor core's headline guarantee on
// the driven workload: total moved volume within O(1/ε) of the total
// requested volume. The constant folds the swap-with-last move (≤ g per
// deleted unit) and the rebuild amortization (≤ 8(1+ε)/(3ε) per deleted
// unit), with margin.
func checkFCSCostBound(t *testing.T, c *contender, eps float64, reqVol int64) {
	t.Helper()
	bound := (10/eps + 4) * float64(reqVol)
	if got := float64(c.met.MovedVolume); got > bound {
		t.Errorf("%s: moved volume %.0f exceeds O(w/ε) budget %.0f over request volume %d",
			c.name, got, bound, reqVol)
	}
}

// TestCrossCoreDifferential is the N-way oracle of the engine boundary:
// the same uniform, zipf, and adversarial request sequences drive the
// reference variants and the FCS successor, and every quiescent point
// must agree on all externally observable state while each core's cost
// stays inside its proven bound.
func TestCrossCoreDifferential(t *testing.T) {
	const eps = 0.25
	streams := []struct {
		name string
		mk   func() workload.Stream
		n    int
	}{
		{"uniform", func() workload.Stream {
			return &workload.Churn{Seed: 41, Sizes: workload.Uniform{Min: 1, Max: 64}, TargetVolume: 1 << 14}
		}, 4000},
		{"zipf", func() workload.Stream {
			return &workload.ZipfChurn{Seed: 42, Sizes: workload.Pareto{Min: 1, Max: 512, Alpha: 1.2}, TargetVolume: 1 << 14, Homes: 8}
		}, 4000},
		{"lowerbound", func() workload.Stream {
			return &workload.LowerBound{Delta: 512}
		}, 0},
		{"compaction", func() workload.Stream {
			return &workload.CompactionAdversary{Delta: 128, Bigs: 8}
		}, 0},
		{"gap", func() workload.Stream {
			return &workload.GapAdversary{Volume: 1 << 12, MaxExp: 6}
		}, 0},
	}
	for _, sc := range streams {
		t.Run(sc.name, func(t *testing.T) {
			ops := workload.Collect(sc.mk(), sc.n)
			if len(ops) == 0 {
				t.Fatal("empty op stream")
			}
			cs := newContenders(t, eps)
			reqVol := driveAll(t, cs, ops, 512)
			for _, c := range cs {
				if c.core == FCS {
					checkFCSCostBound(t, c, eps, reqVol)
				}
				// The footprint budget is every core's shared contract;
				// at quiescence each holds (1+ε)·V plus its additive term.
				if v, f := c.eng.Volume(), c.eng.Footprint(); v > 0 && c.core == FCS {
					if float64(f) > (1+eps)*float64(v) {
						t.Errorf("%s: quiescent footprint %d over (1+ε)·%d", c.name, f, v)
					}
				}
			}
		})
	}
}

// TestCrossCoreMassDelete stresses the rebuild path: fill, then delete
// in bursts down to a sliver, comparing state the whole way.
func TestCrossCoreMassDelete(t *testing.T) {
	const eps = 0.5
	var ops []workload.Op
	n := 600
	for i := 1; i <= n; i++ {
		ops = append(ops, workload.Op{Insert: true, ID: ID(i), Size: int64(i%31 + 1)})
	}
	// Delete all but every 40th object, oldest first — the surviving set
	// is sparse, so the frontier must collapse.
	for i := 1; i <= n; i++ {
		if i%40 != 0 {
			ops = append(ops, workload.Op{ID: ID(i)})
		}
	}
	cs := newContenders(t, eps)
	driveAll(t, cs, ops, 256)
	for _, c := range cs {
		if c.core != FCS {
			continue
		}
		v, f := c.eng.Volume(), c.eng.Footprint()
		if float64(f) > (1+eps)*float64(v) {
			t.Errorf("%s: footprint %d after mass delete, volume %d", c.name, f, v)
		}
		if c.eng.Flushes() == 0 {
			t.Errorf("%s: mass delete triggered no rebuild", c.name)
		}
	}
}

// TestCrossCoreEmptyCycle: repeatedly filling and fully emptying the
// structure must return every core to a zero footprint.
func TestCrossCoreEmptyCycle(t *testing.T) {
	cs := newContenders(t, 0.25)
	for round := 0; round < 3; round++ {
		ref := map[ID]int64{}
		for i := 1; i <= 100; i++ {
			id := ID(round*1000 + i)
			size := int64((i*7)%23 + 1)
			for _, c := range cs {
				if err := c.eng.Insert(id, size); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
			}
			ref[id] = size
		}
		compareQuiescent(t, cs, ref)
		for id := range ref {
			for _, c := range cs {
				if err := c.eng.Delete(id); err != nil {
					t.Fatalf("%s: delete %d: %v", c.name, id, err)
				}
			}
		}
		compareQuiescent(t, cs, map[ID]int64{})
		for _, c := range cs {
			if f := c.eng.Footprint(); f != 0 {
				t.Errorf("%s: footprint %d on empty structure (round %d)", c.name, f, round)
			}
		}
	}
}
