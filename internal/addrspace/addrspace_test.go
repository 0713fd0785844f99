package addrspace

import (
	"errors"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestExtentBasics(t *testing.T) {
	e := Extent{Start: 10, Size: 5}
	if e.End() != 15 {
		t.Fatalf("End = %d", e.End())
	}
	cases := []struct {
		a, b Extent
		want bool
	}{
		{Extent{0, 5}, Extent{5, 5}, false},  // touching is not overlapping
		{Extent{0, 5}, Extent{4, 5}, true},   // one-cell overlap
		{Extent{0, 10}, Extent{2, 3}, true},  // containment
		{Extent{5, 5}, Extent{0, 5}, false},  // touching, other order
		{Extent{0, 1}, Extent{0, 1}, true},   // identical
		{Extent{0, 5}, Extent{20, 5}, false}, // far apart
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("overlap not symmetric for %v, %v", c.a, c.b)
		}
	}
}

func TestPlaceRejectsOverlap(t *testing.T) {
	s := New(RAM())
	if err := s.Place(1, Extent{0, 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(2, Extent{5, 10}); !errors.Is(err, ErrOverlap) {
		t.Fatalf("expected ErrOverlap, got %v", err)
	}
	if err := s.Place(2, Extent{10, 10}); err != nil {
		t.Fatalf("touching placement should work: %v", err)
	}
	if err := s.Place(2, Extent{30, 5}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("expected ErrDuplicate, got %v", err)
	}
	if err := s.Place(3, Extent{-1, 5}); !errors.Is(err, ErrBadExtent) {
		t.Fatalf("expected ErrBadExtent for negative start, got %v", err)
	}
	if err := s.Place(3, Extent{0, 0}); !errors.Is(err, ErrBadExtent) {
		t.Fatalf("expected ErrBadExtent for empty extent, got %v", err)
	}
	if err := s.Place(0, Extent{100, 5}); err == nil {
		t.Fatal("zero id accepted")
	}
}

func TestMoveSemantics(t *testing.T) {
	t.Run("ram allows self overlap", func(t *testing.T) {
		s := New(RAM())
		if err := s.Place(1, Extent{0, 10}); err != nil {
			t.Fatal(err)
		}
		if err := s.Move(1, 5); err != nil {
			t.Fatalf("memmove-style move failed: %v", err)
		}
		if e, _ := s.Extent(1); e.Start != 5 {
			t.Fatalf("extent after move: %v", e)
		}
	})
	t.Run("strict forbids self overlap", func(t *testing.T) {
		s := New(Options{StrictNonOverlap: true})
		if err := s.Place(1, Extent{0, 10}); err != nil {
			t.Fatal(err)
		}
		if err := s.Move(1, 5); !errors.Is(err, ErrSelfOverlap) {
			t.Fatalf("expected ErrSelfOverlap, got %v", err)
		}
		if err := s.Move(1, 10); err != nil {
			t.Fatalf("disjoint move failed: %v", err)
		}
	})
	t.Run("move onto other object fails", func(t *testing.T) {
		s := New(RAM())
		_ = s.Place(1, Extent{0, 10})
		_ = s.Place(2, Extent{20, 10})
		if err := s.Move(1, 15); !errors.Is(err, ErrOverlap) {
			t.Fatalf("expected ErrOverlap, got %v", err)
		}
	})
	t.Run("move unknown", func(t *testing.T) {
		s := New(RAM())
		if err := s.Move(42, 0); !errors.Is(err, ErrUnknownObject) {
			t.Fatalf("expected ErrUnknownObject, got %v", err)
		}
	})
	t.Run("no-op move", func(t *testing.T) {
		s := New(RAM())
		_ = s.Place(1, Extent{3, 4})
		if err := s.Move(1, 3); err != nil {
			t.Fatal(err)
		}
		if s.Moves() != 0 {
			t.Fatal("no-op move counted")
		}
	})
}

func TestCheckpointRule(t *testing.T) {
	s := New(Durable())
	if err := s.Place(1, Extent{0, 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(2, Extent{10, 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(1); err != nil {
		t.Fatal(err)
	}
	// The freed space cannot be rewritten before a checkpoint.
	if err := s.Place(3, Extent{0, 5}); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("expected ErrWouldBlock, got %v", err)
	}
	if !s.WouldBlock(Extent{5, 2}) {
		t.Fatal("WouldBlock should report the freed range")
	}
	if s.BlockedWrites() != 1 {
		t.Fatalf("blocked writes = %d", s.BlockedWrites())
	}
	if s.FreedVolume() != 10 {
		t.Fatalf("freed volume = %d", s.FreedVolume())
	}
	s.Checkpoint()
	if s.WouldBlock(Extent{0, 10}) {
		t.Fatal("freed set should clear at checkpoint")
	}
	if err := s.Place(3, Extent{0, 5}); err != nil {
		t.Fatalf("place after checkpoint: %v", err)
	}
	// A move frees its source.
	if err := s.Move(2, 40); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(4, Extent{12, 2}); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("move source should be freed-since-checkpoint: %v", err)
	}
	s.Checkpoint()
	if err := s.Place(4, Extent{12, 2}); err != nil {
		t.Fatal(err)
	}
}

func TestCellTrackingGhosts(t *testing.T) {
	s := New(Options{StrictNonOverlap: true, CheckpointRule: true, TrackCells: true})
	if err := s.Place(1, Extent{0, 8}); err != nil {
		t.Fatal(err)
	}
	if !s.HoldsData(1, Extent{0, 8}) {
		t.Fatal("data missing after place")
	}
	if err := s.Move(1, 20); err != nil {
		t.Fatal(err)
	}
	// Both copies exist until something overwrites the ghost.
	if !s.HoldsData(1, Extent{20, 8}) {
		t.Fatal("data missing at new location")
	}
	if !s.HoldsData(1, Extent{0, 8}) {
		t.Fatal("ghost copy should remain at the old location")
	}
	s.Checkpoint()
	if err := s.Place(2, Extent{0, 4}); err != nil {
		t.Fatal(err)
	}
	if s.HoldsData(1, Extent{0, 8}) {
		t.Fatal("ghost should be overwritten by object 2")
	}
	if s.CellOwner(0) != 2 || s.CellOwner(4) != 1 {
		t.Fatalf("cell owners: %d %d", s.CellOwner(0), s.CellOwner(4))
	}
	if s.CellOwner(-1) != 0 || s.CellOwner(1<<40) != 0 {
		t.Fatal("out-of-range cells should report 0")
	}
}

func TestRemoveAndVolume(t *testing.T) {
	s := New(RAM())
	_ = s.Place(1, Extent{0, 5})
	_ = s.Place(2, Extent{5, 7})
	if s.Volume() != 12 || s.Len() != 2 {
		t.Fatalf("volume=%d len=%d", s.Volume(), s.Len())
	}
	if s.MaxEnd() != 12 {
		t.Fatalf("maxEnd=%d", s.MaxEnd())
	}
	if err := s.Remove(2); err != nil {
		t.Fatal(err)
	}
	if s.Volume() != 5 || s.MaxEnd() != 5 {
		t.Fatalf("after remove: volume=%d maxEnd=%d", s.Volume(), s.MaxEnd())
	}
	if err := s.Remove(2); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("double remove: %v", err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestForEachOrder(t *testing.T) {
	s := New(RAM())
	_ = s.Place(3, Extent{20, 5})
	_ = s.Place(1, Extent{0, 5})
	_ = s.Place(2, Extent{10, 5})
	var order []ID
	s.ForEach(func(id ID, ext Extent) { order = append(order, id) })
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("address order: %v", order)
	}
}

// TestIndexDesyncPanics asserts the placement lookup refuses to walk past
// a corrupted index: with unique live starts the exact binary search must
// land on the object, so a mismatch is a structural desync that panics
// instead of being silently tolerated.
func TestIndexDesyncPanics(t *testing.T) {
	mustPanic := func(name string, corrupt func(*Space), op func(*Space) error) {
		t.Helper()
		s := New(RAM())
		for i, ext := range []Extent{{0, 4}, {10, 4}, {20, 4}} {
			if err := s.Place(ID(i+1), ext); err != nil {
				t.Fatal(err)
			}
		}
		corrupt(s)
		defer func() {
			if recover() == nil {
				t.Errorf("%s: corrupted index did not panic", name)
			}
		}()
		_ = op(s)
	}
	// Shift an index entry so the map and the index disagree.
	shift := func(s *Space) { s.byStart.blocks[0][1].ext.Start += 2 }
	mustPanic("remove", shift, func(s *Space) error { return s.Remove(2) })
	mustPanic("relocate", shift, func(s *Space) error { return s.Move(2, 50) })
	// Swap two entries' identities: search lands on the wrong object.
	swap := func(s *Space) {
		blk := s.byStart.blocks[0]
		blk[0].id, blk[1].id = blk[1].id, blk[0].id
	}
	mustPanic("wrong id", swap, func(s *Space) error { return s.Remove(1) })
	// Point an index entry at another object's id table slot: the flush
	// commit writes the table by slot and must refuse to.
	reslot := func(s *Space) {
		blk := s.byStart.blocks[0]
		blk[1].slot = blk[2].slot
	}
	mustPanic("commit", reslot, func(s *Space) error {
		sess, err := begin(s, []Relocation{{ID: 2, To: 40, Ref: 1}}, 0)
		if err == nil {
			_, _, err = sess.Advance(1<<40, nil)
		}
		return err
	})
}

func TestSubtract(t *testing.T) {
	cases := []struct {
		a, b Extent
		want []Extent
	}{
		{Extent{0, 10}, Extent{20, 5}, []Extent{{0, 10}}},       // disjoint
		{Extent{0, 10}, Extent{0, 10}, nil},                     // full cover
		{Extent{0, 10}, Extent{0, 4}, []Extent{{4, 6}}},         // prefix covered
		{Extent{0, 10}, Extent{6, 10}, []Extent{{0, 6}}},        // suffix covered
		{Extent{0, 10}, Extent{3, 4}, []Extent{{0, 3}, {7, 3}}}, // middle covered
	}
	for _, c := range cases {
		var pieces [2]Extent
		got := pieces[:subtract(c.a, c.b, &pieces)]
		if len(got) != len(c.want) {
			t.Errorf("subtract(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("subtract(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
			}
		}
	}
}

// refSpace is a brute-force reference: a map of cells.
type refSpace struct {
	cells map[int64]ID
	exts  map[ID]Extent
}

func newRef() *refSpace {
	return &refSpace{cells: map[int64]ID{}, exts: map[ID]Extent{}}
}

func (r *refSpace) canWrite(ext Extent, self ID) bool {
	for i := ext.Start; i < ext.End(); i++ {
		if o, ok := r.cells[i]; ok && o != self {
			return false
		}
	}
	return true
}

func (r *refSpace) place(id ID, ext Extent) bool {
	if _, dup := r.exts[id]; dup || !r.canWrite(ext, 0) {
		return false
	}
	r.exts[id] = ext
	for i := ext.Start; i < ext.End(); i++ {
		r.cells[i] = id
	}
	return true
}

func (r *refSpace) move(id ID, to int64) bool {
	old, ok := r.exts[id]
	if !ok {
		return false
	}
	ext := Extent{to, old.Size}
	if !r.canWrite(ext, id) {
		return false
	}
	for i := old.Start; i < old.End(); i++ {
		delete(r.cells, i)
	}
	for i := ext.Start; i < ext.End(); i++ {
		r.cells[i] = id
	}
	r.exts[id] = ext
	return true
}

func (r *refSpace) remove(id ID) bool {
	old, ok := r.exts[id]
	if !ok {
		return false
	}
	for i := old.Start; i < old.End(); i++ {
		delete(r.cells, i)
	}
	delete(r.exts, id)
	return true
}

func (r *refSpace) maxEnd() int64 {
	var m int64
	for _, e := range r.exts {
		if e.End() > m {
			m = e.End()
		}
	}
	return m
}

// TestDifferentialAgainstReference drives random operations through the
// sorted-index implementation and a brute-force cell map; outcomes and
// aggregate state must agree exactly.
func TestDifferentialAgainstReference(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		s := New(RAM())
		ref := newRef()
		nextID := ID(1)
		var live []ID
		for op := 0; op < 300; op++ {
			switch rng.IntN(3) {
			case 0: // place
				id := nextID
				nextID++
				ext := Extent{Start: rng.Int64N(400), Size: 1 + rng.Int64N(20)}
				got := s.Place(id, ext) == nil
				want := ref.place(id, ext)
				if got != want {
					t.Logf("place(%d,%v): impl=%v ref=%v", id, ext, got, want)
					return false
				}
				if got {
					live = append(live, id)
				}
			case 1: // move
				if len(live) == 0 {
					continue
				}
				id := live[rng.IntN(len(live))]
				to := rng.Int64N(400)
				// RAM mode allows self overlap; the reference must treat
				// the object's own cells as writable, which canWrite does.
				got := s.Move(id, to) == nil
				want := ref.move(id, to)
				if got != want {
					t.Logf("move(%d,%d): impl=%v ref=%v", id, to, got, want)
					return false
				}
			case 2: // remove
				if len(live) == 0 {
					continue
				}
				i := rng.IntN(len(live))
				id := live[i]
				got := s.Remove(id) == nil
				want := ref.remove(id)
				if got != want {
					t.Logf("remove(%d): impl=%v ref=%v", id, got, want)
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if s.MaxEnd() != ref.maxEnd() {
				t.Logf("maxEnd: impl=%d ref=%d", s.MaxEnd(), ref.maxEnd())
				return false
			}
			if err := s.Verify(); err != nil {
				t.Log(err)
				return false
			}
		}
		// Extent agreement for all survivors.
		for id, want := range ref.exts {
			got, ok := s.Extent(id)
			if !ok || got != want {
				t.Logf("extent(%d): impl=%v,%v ref=%v", id, got, ok, want)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVerifyCatchesCorruption corrupts internals deliberately, once per
// check, and asserts Verify names the damage.
func TestVerifyCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(s *Space)
		want    string
	}{
		{"index extent", func(s *Space) { s.byStart.blocks[0][0].ext.Size = 100 }, "id table has"},
		{"index slot", func(s *Space) {
			blk := s.byStart.blocks[0]
			blk[0].slot = blk[1].slot
		}, "probe finds"},
		{"table extent", func(s *Space) { s.ids.ents[s.byStart.blocks[0][1].slot].ext.Start++ }, "id table has"},
		{"table tag", func(s *Space) { s.ids.ents[s.byStart.blocks[0][1].slot].tag++ }, "id table has"},
		{"live count", func(s *Space) { s.ids.live++ }, "objects, counts"},
		{"tombstone count", func(s *Space) { s.ids.tombs-- }, "tombstones, counts"},
	}
	for _, c := range cases {
		s := New(RAM())
		for i, ext := range []Extent{{0, 5}, {10, 5}, {20, 5}} {
			if err := s.PlaceTagged(ID(i+1), ext, tagOf(ID(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Remove(3); err != nil { // leaves a tombstone
			t.Fatal(err)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("%s: baseline: %v", c.name, err)
		}
		c.corrupt(s)
		err := s.Verify()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Verify reported %v, want mention of %q", c.name, err, c.want)
		}
	}
}
