package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"realloc/internal/trace"
)

// refModel is the trivial reference: a map of live objects.
type refModel map[ID]int64

func (m refModel) volume() int64 {
	var v int64
	for _, s := range m {
		v += s
	}
	return v
}

// TestDifferentialAllVariants drives random request sequences through all
// three variants with paranoid checking and compares the live set, sizes,
// and volume against the reference model after every request.
func TestDifferentialAllVariants(t *testing.T) {
	for _, variant := range variants {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			err := quick.Check(func(seed uint64) bool {
				rng := rand.New(rand.NewPCG(seed, uint64(variant)))
				eps := []float64{0.5, 0.25, 0.1}[rng.IntN(3)]
				r := MustNew(Config{Epsilon: eps, Variant: variant, Paranoid: true, TrackCells: true})
				ref := refModel{}
				var ids []ID
				next := ID(1)
				for op := 0; op < 400; op++ {
					if len(ids) == 0 || rng.Float64() < 0.6 {
						size := int64(1 + rng.Int64N(96))
						if rng.IntN(12) == 0 {
							size = 1 + rng.Int64N(2000) // occasional giant
						}
						if err := r.Insert(next, size); err != nil {
							t.Logf("insert: %v", err)
							return false
						}
						ref[next] = size
						ids = append(ids, next)
						next++
					} else {
						i := rng.IntN(len(ids))
						id := ids[i]
						if err := r.Delete(id); err != nil {
							t.Logf("delete: %v", err)
							return false
						}
						delete(ref, id)
						ids[i] = ids[len(ids)-1]
						ids = ids[:len(ids)-1]
					}
					// Deletes logged during an active flush keep their
					// object active until the drain (the paper's
					// semantics); add the pending volume back in.
					var pendingVol int64
					pendingCnt := 0
					for _, o := range r.objects() {
						if o.deletePending {
							pendingVol += o.size
							pendingCnt++
						}
					}
					if r.Volume() != ref.volume()+pendingVol {
						t.Logf("volume %d != ref %d + pending %d", r.Volume(), ref.volume(), pendingVol)
						return false
					}
					if r.Len() != len(ref)+pendingCnt {
						t.Logf("len %d != ref %d + pending %d", r.Len(), len(ref), pendingCnt)
						return false
					}
				}
				// Full state agreement at the end.
				if err := r.Drain(); err != nil {
					t.Log(err)
					return false
				}
				for id, size := range ref {
					ext, ok := r.Extent(id)
					if !ok || ext.Size != size {
						t.Logf("object %d: ext=%v ok=%v want size %d", id, ext, ok, size)
						return false
					}
					if !r.Space().HoldsData(id, ext) {
						t.Logf("object %d: data corrupted", id)
						return false
					}
				}
				return true
			}, &quick.Config{MaxCount: 12})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeamortizedPerOpVolumeCap is the Lemma 3.6 property: every request
// reallocates at most (4/eps')*w + 2*Delta volume (one Delta for the
// indivisible last move, one for the flush-trigger evacuation).
func TestDeamortizedPerOpVolumeCap(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 31337))
		m := trace.NewMetrics()
		r := MustNew(Config{Epsilon: 0.4, Variant: Deamortized, Recorder: m})
		var ids []ID
		next := ID(1)
		prevMoved := int64(0)
		for op := 0; op < 600; op++ {
			var w int64
			var err error
			if len(ids) == 0 || rng.Float64() < 0.55 {
				w = 1 + rng.Int64N(128)
				err = r.Insert(next, w)
				ids = append(ids, next)
				next++
			} else {
				i := rng.IntN(len(ids))
				id := ids[i]
				if sz, ok := r.SizeOf(id); ok {
					w = sz
				}
				err = r.Delete(id)
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
			}
			if err != nil {
				t.Log(err)
				return false
			}
			moved := m.MovedVolume - prevMoved
			prevMoved = m.MovedVolume
			bound := int64(4/r.EpsPrime()*float64(w)) + 2*r.Delta() + 1
			if moved > bound {
				t.Logf("op %d (w=%d): moved %d > bound %d", op, w, moved, bound)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 15})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFlushCompletesWithinEpsVolume is Lemma 3.4: a deamortized flush
// finishes before eps'*V_f additional update volume arrives.
func TestFlushCompletesWithinEpsVolume(t *testing.T) {
	m := trace.NewMetrics()
	r := MustNew(Config{Epsilon: 0.3, Variant: Deamortized, Recorder: m})
	rng := rand.New(rand.NewPCG(5, 5))
	var ids []ID
	next := ID(1)
	var flushStartVol int64
	var arrived int64
	worstFrac := 0.0
	for op := 0; op < 20000; op++ {
		wasActive := r.FlushActive()
		var w int64
		var err error
		if len(ids) == 0 || rng.Float64() < 0.52 {
			w = 1 + rng.Int64N(48)
			err = r.Insert(next, w)
			ids = append(ids, next)
			next++
		} else {
			i := rng.IntN(len(ids))
			id := ids[i]
			w, _ = r.SizeOf(id)
			err = r.Delete(id)
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		if err != nil {
			t.Fatal(err)
		}
		if wasActive {
			arrived += w
			if !r.FlushActive() && flushStartVol > 0 {
				if frac := float64(arrived) / float64(flushStartVol); frac > worstFrac {
					worstFrac = frac
				}
			}
		}
		if !wasActive && r.FlushActive() {
			flushStartVol = r.Volume()
			arrived = w // the triggering op's volume counts
		}
	}
	// Lemma 3.4 bound is eps'*V_f; allow the indivisible-object slack.
	limit := r.EpsPrime() + 0.05
	if worstFrac > limit {
		t.Fatalf("a flush absorbed %.4f of V_f in updates, bound %.4f", worstFrac, limit)
	}
	if m.Flushes == 0 {
		t.Fatal("no flushes")
	}
}

// TestMassDeleteThenReinsert exercises structure shrinkage: delete
// everything, reinsert a different mix, repeat.
func TestMassDeleteThenReinsert(t *testing.T) {
	for _, variant := range variants {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			r := MustNew(Config{Epsilon: 0.25, Variant: variant, Paranoid: true})
			next := ID(1)
			for round := 0; round < 5; round++ {
				var batch []ID
				for i := 0; i < 150; i++ {
					size := int64(1 + (int(next)*(round+3))%200)
					if err := r.Insert(next, size); err != nil {
						t.Fatalf("round %d insert: %v", round, err)
					}
					batch = append(batch, next)
					next++
				}
				for _, id := range batch {
					if err := r.Delete(id); err != nil {
						t.Fatalf("round %d delete: %v", round, err)
					}
				}
				if err := r.Drain(); err != nil {
					t.Fatal(err)
				}
				if r.Volume() != 0 {
					t.Fatalf("round %d: volume %d after deleting all", round, r.Volume())
				}
			}
		})
	}
}

// TestMonotoneGrowthThenShrink drives a sawtooth through each variant and
// verifies the footprint bound saw both extremes.
func TestMonotoneGrowthThenShrink(t *testing.T) {
	for _, variant := range variants {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			m := trace.NewMetrics()
			r := MustNew(Config{Epsilon: 0.25, Variant: variant, Recorder: m})
			next := ID(1)
			var live []ID
			// Grow.
			for i := 0; i < 2000; i++ {
				if err := r.Insert(next, int64(1+i%64)); err != nil {
					t.Fatal(err)
				}
				live = append(live, next)
				next++
			}
			peak := r.Volume()
			// Shrink to 10%.
			for len(live) > 200 {
				id := live[0]
				live = live[1:]
				if err := r.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.Drain(); err != nil {
				t.Fatal(err)
			}
			if r.Volume() >= peak/5 {
				t.Fatalf("volume %d did not shrink (peak %d)", r.Volume(), peak)
			}
			// The footprint must have come down with it.
			if got := float64(r.StructSize()); got > 1.3*float64(r.Volume())+2 {
				t.Fatalf("structure %v did not shrink with volume %d", got, r.Volume())
			}
			if m.MaxRatioQuiescent > 1.27 {
				t.Fatalf("quiescent ratio %v exceeded bound", m.MaxRatioQuiescent)
			}
		})
	}
}

// TestIDReuseAfterDrainedDelete: an ID can be reused once its delete has
// fully completed.
func TestIDReuseAfterDrainedDelete(t *testing.T) {
	for _, variant := range variants {
		r := MustNew(Config{Epsilon: 0.5, Variant: variant, Paranoid: true})
		if err := r.Insert(1, 10); err != nil {
			t.Fatal(err)
		}
		if err := r.Delete(1); err != nil {
			t.Fatal(err)
		}
		if err := r.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := r.Insert(1, 20); err != nil {
			t.Fatalf("%v: reuse after delete: %v", variant, err)
		}
		if sz, _ := r.SizeOf(1); sz != 20 {
			t.Fatalf("%v: reused object size %d", variant, sz)
		}
	}
}

// TestManyClassesSimultaneously spans 20 size classes at once.
func TestManyClassesSimultaneously(t *testing.T) {
	for _, variant := range variants {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			r := MustNew(Config{Epsilon: 0.5, Variant: variant, Paranoid: true})
			id := ID(1)
			for c := 0; c < 20; c++ {
				for k := 0; k < 3; k++ {
					if err := r.Insert(id, int64(1)<<uint(c)); err != nil {
						t.Fatalf("class %d: %v", c, err)
					}
					id++
				}
			}
			// Delete the middle copy of each class.
			for c := 0; c < 20; c++ {
				if err := r.Delete(ID(c*3 + 2)); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.Drain(); err != nil {
				t.Fatal(err)
			}
			if err := r.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got, want := r.Len(), 40; got != want {
				t.Fatalf("len = %d, want %d", got, want)
			}
		})
	}
}

// TestErrorMessagesCarryContext spot-checks error wrapping.
func TestErrorMessagesCarryContext(t *testing.T) {
	r := MustNew(Config{Epsilon: 0.5})
	err := r.Insert(1, -5)
	if err == nil || fmt.Sprintf("%v", err) == "" {
		t.Fatal("missing error")
	}
}
