package fcs

import (
	"strings"
	"testing"

	"realloc/internal/addrspace"
)

// These tests deliberately corrupt internal state and assert the checker
// catches it — guarding against a vacuously-green paranoid mode.

// corruptible builds a small structure: three objects in one class (so
// that class has several slots) and one in another.
func corruptible(t *testing.T) *Reallocator {
	t.Helper()
	r, err := New(Config{Epsilon: 0.25, TrackCells: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, size := range []int64{10, 10, 10, 3} {
		if err := r.Insert(ID(i+1), size); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("baseline structure unsound: %v", err)
	}
	return r
}

func expectViolation(t *testing.T, r *Reallocator, fragment string) {
	t.Helper()
	err := r.CheckInvariants()
	if err == nil {
		t.Fatalf("checker missed corruption (wanted %q)", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("checker reported %q, wanted mention of %q", err, fragment)
	}
}

func TestCheckerCatchesSlotDisorder(t *testing.T) {
	r := corruptible(t)
	// Delete's binary search relies on each class's starts ascending.
	cl := &r.classes[r.classFor(10)]
	cl.starts[0], cl.starts[1] = cl.starts[1], cl.starts[0]
	expectViolation(t, r, "slot starts out of order")
}

func TestCheckerCatchesForeignTag(t *testing.T) {
	r := corruptible(t)
	// Re-place object 1 where it is, tagged with another class's index.
	ext, _ := r.space.Extent(1)
	if err := r.space.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := r.space.PlaceTagged(1, ext, int32(r.classFor(3))); err != nil {
		t.Fatal(err)
	}
	expectViolation(t, r, "carries tag")
}

func TestCheckerCatchesUnlistedObject(t *testing.T) {
	r := corruptible(t)
	// A substrate object no slot lists. The volume bookkeeping is moved
	// with it, so only the slot census can see it.
	if err := r.space.Place(99, addrspace.Extent{Start: r.allocEnd, Size: 4}); err != nil {
		t.Fatal(err)
	}
	r.vol += 4
	expectViolation(t, r, "slots list 4 objects, substrate holds 5")
}
