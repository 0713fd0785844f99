package fcs

import (
	"math/rand/v2"
	"testing"

	"realloc/internal/trace"
)

func mustNew(t *testing.T, cfg Config) *Reallocator {
	t.Helper()
	cfg.Paranoid = true
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestConfigValidation: epsilon outside (0, 1] is rejected.
func TestConfigValidation(t *testing.T) {
	for _, eps := range []float64{0, -1, 1.5} {
		if _, err := New(Config{Epsilon: eps}); err == nil {
			t.Errorf("New(eps=%v) accepted", eps)
		}
	}
	if _, err := New(Config{Epsilon: 1}); err != nil {
		t.Errorf("New(eps=1) rejected: %v", err)
	}
}

// TestRequestValidation: bad sizes, ids, duplicates, and missing objects
// produce the package's typed errors.
func TestRequestValidation(t *testing.T) {
	r := mustNew(t, Config{Epsilon: 0.25})
	if err := r.Insert(1, 0); err == nil {
		t.Error("size 0 accepted")
	}
	if err := r.Insert(0, 5); err == nil {
		t.Error("id 0 accepted")
	}
	if err := r.Insert(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(1, 5); err == nil {
		t.Error("duplicate insert accepted")
	}
	if err := r.Delete(99); err == nil {
		t.Error("delete of unknown id accepted")
	}
}

// TestCapsTable: slot capacities grow by at least one and at most the
// configured geometric factor, so the per-object rounding waste is
// bounded by g = 1+ε/4.
func TestCapsTable(t *testing.T) {
	r := mustNew(t, Config{Epsilon: 1}) // g = 1.25, the coarsest table
	c := r.classFor(1 << 20)
	if r.caps[0] != 1 {
		t.Fatalf("cap_0 = %d", r.caps[0])
	}
	for i := 1; i <= c; i++ {
		prev, cur := r.caps[i-1], r.caps[i]
		if cur <= prev {
			t.Fatalf("caps not increasing at %d: %d -> %d", i, prev, cur)
		}
		if float64(cur) > float64(prev)*r.g && cur != prev+1 {
			t.Fatalf("cap jump at %d: %d -> %d exceeds factor %v", i, prev, cur, r.g)
		}
	}
	// Every size maps to the minimal fitting class.
	for _, size := range []int64{1, 2, 3, 7, 100, 12345} {
		c := r.classFor(size)
		if r.caps[c] < size || (c > 0 && r.caps[c-1] >= size) {
			t.Errorf("classFor(%d) = %d (cap %d)", size, c, r.caps[c])
		}
	}
}

// TestSwapWithLast: deleting from the middle of a class moves exactly the
// class's last occupant into the hole.
func TestSwapWithLast(t *testing.T) {
	m := trace.NewMetrics()
	r := mustNew(t, Config{Epsilon: 0.25, Recorder: m})
	for i := int64(1); i <= 4; i++ {
		if err := r.Insert(ID(i), 10); err != nil {
			t.Fatal(err)
		}
	}
	holeExt, _ := r.Extent(2)
	if err := r.Delete(2); err != nil {
		t.Fatal(err)
	}
	// Object 4 (the class's last occupant) must now sit in 2's old slot.
	got, ok := r.Extent(4)
	if !ok || got.Start != holeExt.Start {
		t.Fatalf("last occupant at %v, want start %d", got, holeExt.Start)
	}
	if m.MovesTotal != 1 || m.MovedVolume != 10 {
		t.Fatalf("delete moved %d objects / %d volume, want 1/10", m.MovesTotal, m.MovedVolume)
	}
	// Deleting the last occupant (3 kept the tail slot) moves nothing.
	if err := r.Delete(3); err != nil {
		t.Fatal(err)
	}
	if m.MovesTotal != 1 {
		t.Fatalf("tail delete moved an object (total %d)", m.MovesTotal)
	}
}

// TestSlotReuse: a freed slot is reused by the next same-class insert
// without growing the frontier.
func TestSlotReuse(t *testing.T) {
	r := mustNew(t, Config{Epsilon: 0.25})
	for i := int64(1); i <= 8; i++ {
		if err := r.Insert(ID(i), 16); err != nil {
			t.Fatal(err)
		}
	}
	end := r.StructSize()
	if err := r.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(100, 16); err != nil {
		t.Fatal(err)
	}
	if r.StructSize() != end {
		t.Fatalf("frontier grew from %d to %d despite a free slot", end, r.StructSize())
	}
}

// TestRebuildCollapsesFrontier: deleting most of the volume forces a
// rebuild that restores footprint ≤ (1+ε)·V, and emptying the structure
// returns the frontier to zero.
func TestRebuildCollapsesFrontier(t *testing.T) {
	const eps = 0.25
	m := trace.NewMetrics()
	r := mustNew(t, Config{Epsilon: eps, Recorder: m})
	for i := int64(1); i <= 500; i++ {
		if err := r.Insert(ID(i), i%37+1); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 500; i++ {
		if i%25 == 0 {
			continue
		}
		if err := r.Delete(ID(i)); err != nil {
			t.Fatal(err)
		}
		if v, f := r.Volume(), r.Footprint(); v > 0 && float64(f) > (1+eps)*float64(v) {
			t.Fatalf("after delete %d: footprint %d over (1+ε)·%d", i, f, v)
		}
	}
	if r.Flushes() == 0 {
		t.Fatal("no rebuild ran")
	}
	for i := int64(25); i <= 500; i += 25 {
		if err := r.Delete(ID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if r.Footprint() != 0 || r.StructSize() != 0 {
		t.Fatalf("empty structure: footprint %d, frontier %d", r.Footprint(), r.StructSize())
	}
}

// TestRandomizedInvariants is the core property test: a seeded random
// churn with paranoid checking after every op, asserting the footprint
// budget at every quiescent point and full state fidelity at the end.
func TestRandomizedInvariants(t *testing.T) {
	for _, eps := range []float64{0.1, 0.25, 1} {
		rng := rand.New(rand.NewPCG(7, uint64(eps*1000)))
		r := mustNew(t, Config{Epsilon: eps, TrackCells: true})
		ref := map[ID]int64{}
		var ids []ID
		next := ID(1)
		for op := 0; op < 4000; op++ {
			if len(ids) == 0 || rng.IntN(100) < 55 {
				size := int64(rng.IntN(200) + 1)
				if rng.IntN(50) == 0 {
					size *= 101
				}
				if err := r.Insert(next, size); err != nil {
					t.Fatalf("eps=%v insert: %v", eps, err)
				}
				ref[next] = size
				ids = append(ids, next)
				next++
			} else {
				i := rng.IntN(len(ids))
				id := ids[i]
				if err := r.Delete(id); err != nil {
					t.Fatalf("eps=%v delete(%d): %v", eps, id, err)
				}
				delete(ref, id)
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
			}
			if v, f := r.Volume(), r.Footprint(); float64(f) > (1+eps)*float64(v) {
				t.Fatalf("eps=%v op %d: footprint %d over (1+ε)·%d", eps, op, f, v)
			}
		}
		for id, size := range ref {
			ext, ok := r.Extent(id)
			if !ok || ext.Size != size {
				t.Fatalf("eps=%v: object %d lost (%v, %v)", eps, id, ext, ok)
			}
			if !r.Space().HoldsData(id, ext) {
				t.Fatalf("eps=%v: object %d data corrupted", eps, id)
			}
		}
	}
}
