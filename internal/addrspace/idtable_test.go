package addrspace

import (
	"math/rand/v2"
	"testing"
)

// TestIDTableChurn places and removes random ids, negative ones included,
// through several table rebuilds, checking every lookup against a model
// map. Lookups of absent, zero and negative ids must end and miss, and
// inserts must reuse tombstones.
func TestIDTableChurn(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 0x1d7ab))
	s := New(RAM())
	model := map[ID]Extent{}
	var ids []ID
	next := int64(0)
	reused := 0
	for step := 0; step < 20000; step++ {
		if len(ids) < 40 || (rng.IntN(2) == 0 && len(ids) < 2000) {
			id := ID(rng.Int64N(1<<20) - 1<<19)
			if _, dup := model[id]; dup || id == 0 {
				continue
			}
			ext := Extent{Start: next, Size: 1 + rng.Int64N(3)}
			next = ext.End()
			tombs, rebuilds := s.ids.tombs, s.IDRebuilds()
			if err := s.PlaceTagged(id, ext, int32(id)); err != nil {
				t.Fatal(err)
			}
			if s.IDRebuilds() == rebuilds && s.ids.tombs < tombs {
				reused++
			}
			model[id] = ext
			ids = append(ids, id)
		} else {
			i := rng.IntN(len(ids))
			id := ids[i]
			if err := s.Remove(id); err != nil {
				t.Fatal(err)
			}
			delete(model, id)
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		if step%500 == 0 {
			if err := s.Verify(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for id, want := range model {
				if ext, tag, ok := s.Lookup(id); !ok || ext != want || tag != int32(id) {
					t.Fatalf("step %d: Lookup(%d) = %v %d %v, want %v", step, id, ext, tag, ok, want)
				}
			}
			for _, id := range []ID{0, -1, 1 << 40, -(1 << 40), ID(rng.Int64N(1<<20) - 1<<19)} {
				if _, live := model[id]; live {
					continue
				}
				if _, _, ok := s.Lookup(id); ok {
					t.Fatalf("step %d: Lookup(%d) hit an absent id", step, id)
				}
			}
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("Len %d, model %d", s.Len(), len(model))
	}
	if got := s.IDRebuilds(); got < 5 {
		t.Fatalf("%d rebuilds, want several", got)
	}
	if reused == 0 {
		t.Fatal("no insert reused a tombstone")
	}
	// Emptied out, the table holds only tombstones: lookups still end.
	for _, id := range ids {
		if err := s.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []ID{0, -1, ids[0]} {
		if _, ok := s.Extent(id); ok {
			t.Fatalf("Extent(%d) hit in an empty space", id)
		}
	}
}
