package core

import (
	"math/rand/v2"
	"testing"
)

// TestDeamortizedLogInsertAfterParkedDrain pins the mid-flush overlap:
// a new-largest-class insert logged during a flush is parked by the
// drain past everything placed so far, and further inserts logged by
// the same flush must land beyond it, not at the old log end.
func TestDeamortizedLogInsertAfterParkedDrain(t *testing.T) {
	// ε=1 makes the overlap frequent: before the fix it hit 84 of these
	// 200 seeds (at ε=0.25, about one seed in a hundred).
	for seed := uint64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xdea))
		r, err := New(Config{Epsilon: 1, Variant: Deamortized, TrackCells: true})
		if err != nil {
			t.Fatal(err)
		}
		id := ID(1)
		check := false // every invariant after each op, once it matters
		insert := func(size int64) {
			t.Helper()
			if err := r.Insert(id, size); err != nil {
				t.Fatalf("seed %d: insert %d (%d B, flush active %v): %v", seed, id, size, r.FlushActive(), err)
			}
			if check {
				if err := r.CheckInvariants(); err != nil {
					t.Fatalf("seed %d: after insert %d: %v", seed, id, err)
				}
			}
			id++
		}
		warm := 32 + rng.IntN(256)
		for i := 0; i < warm || !r.FlushActive(); i++ {
			insert(16 + rng.Int64N(240))
		}
		check = true
		insert(256)
		for i := 0; i < 64; i++ {
			insert(16 + rng.Int64N(240))
		}
		if err := r.Drain(); err != nil {
			t.Fatalf("seed %d: drain: %v", seed, err)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
