package core

import (
	"math/rand/v2"
	"testing"

	"realloc/internal/trace"
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

// TestDeamortizedLogInsertsRebuildIDTable: inserts logged during an
// active flush push the substrate's id table through a rebuild, which
// moves every slot under the flush's session; the flush must still drain
// with every invariant green, on the batched chunk path (no recorder)
// and the observed one (a recorder the core reports each move to).
func TestDeamortizedLogInsertsRebuildIDTable(t *testing.T) {
	for _, rec := range []trace.Recorder{nil, &trace.Log{}} {
		r := MustNew(Config{Epsilon: 0.3, EpsPrime: 0.05, Variant: Deamortized, Paranoid: true, Recorder: rec})
		// Large objects make a long flush: each size-1 log insert below
		// performs 80 cells of it, against tens of thousands per object.
		id := ID(1)
		for ; id <= 64 || !r.FlushActive(); id++ {
			if id > 1000 {
				t.Fatal("no flush started")
			}
			if err := r.Insert(id, 4096); err != nil {
				t.Fatal(err)
			}
			if id <= 64 {
				if err := r.Drain(); err != nil {
					t.Fatal(err)
				}
			}
		}
		first := id
		for rebuilds := r.space.IDRebuilds(); r.space.IDRebuilds() == rebuilds; id++ {
			if !r.FlushActive() {
				t.Fatalf("the flush finished after %d log inserts, before an id table rebuild", id-first)
			}
			if err := r.Insert(id, 1); err != nil {
				t.Fatal(err)
			}
		}
		if !r.FlushActive() {
			t.Fatal("the rebuild came with the flush's last chunk, not mid-flush")
		}
		if err := r.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for i := first; i < id; i++ {
			if size, ok := r.SizeOf(i); !ok || size != 1 || !r.Has(i) {
				t.Fatalf("logged object %d: size %d, present %v", i, size, ok)
			}
		}
	}
}
