package core

import (
	"strings"
	"testing"
)

// These tests deliberately corrupt internal state and assert the checker
// catches it — guarding against a vacuously-green paranoid mode.

// corruptible builds a small structure with payloads and buffered items.
func corruptible(t *testing.T) *Reallocator {
	t.Helper()
	r := MustNew(Config{Epsilon: 0.5, Variant: Amortized, TrackCells: true})
	for i, size := range []int64{8, 8, 4, 2, 16} {
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

func TestCheckerCatchesVolumeDrift(t *testing.T) {
	r := corruptible(t)
	r.vol += 3
	expectViolation(t, r, "volume accounting")
}

func TestCheckerCatchesClassVolumeDrift(t *testing.T) {
	r := corruptible(t)
	r.volByClass[3] -= 2
	expectViolation(t, r, "class 3 volume")
}

func TestCheckerCatchesBufferFillDrift(t *testing.T) {
	r := corruptible(t)
	// Find a region with buffered items and desync its fill counter.
	for _, reg := range r.regions {
		if len(reg.items) > 0 {
			reg.bufFill++
			expectViolation(t, r, "buffer fill")
			return
		}
	}
	t.Skip("no buffered items in this construction")
}

func TestCheckerCatchesRegionOrder(t *testing.T) {
	r := corruptible(t)
	if len(r.regions) < 2 {
		t.Skip("need two regions")
	}
	r.regions[0], r.regions[1] = r.regions[1], r.regions[0]
	if err := r.CheckInvariants(); err == nil {
		t.Fatal("checker missed region disorder")
	}
}

func TestCheckerCatchesPayLiveDrift(t *testing.T) {
	r := corruptible(t)
	r.regions[0].payLive--
	if err := r.CheckInvariants(); err == nil {
		t.Fatal("checker missed payLive drift")
	}
}

func TestCheckerCatchesForeignBufferItem(t *testing.T) {
	r := corruptible(t)
	// Plant a dummy of a class larger than its buffer's class — an
	// Invariant 2.2.4 violation.
	reg := r.regions[0]
	reg.items = append(reg.items, bufItem{size: 1, class: reg.class + 5})
	reg.bufFill++
	expectViolation(t, r, "Invariant 2.2.4")
}

func TestCheckerCatchesObjectKeyDesync(t *testing.T) {
	r := corruptible(t)
	// Rename an object's record behind its index entry's back.
	for id, o := range r.objects() {
		o.id = id + 1000
		expectViolation(t, r, "carries tag")
		return
	}
}

func TestCheckerCatchesLeakedRecord(t *testing.T) {
	r := corruptible(t)
	// A live record that no index entry names.
	o := r.recs.take()
	o.id, o.size, o.class = 4242, 2, ClassOf(2)
	r.recs.setPlace(o.tag, inPayload)
	expectViolation(t, r, "live records")
}

func TestCheckerCatchesSubstrateDesync(t *testing.T) {
	r := corruptible(t)
	// Remove the physical placement behind the bookkeeping's back.
	for id := range r.objects() {
		if err := r.space.Remove(id); err != nil {
			t.Fatal(err)
		}
		break
	}
	if err := r.CheckInvariants(); err == nil {
		t.Fatal("checker missed a missing physical placement")
	}
}

func TestCheckerCatchesStaleTag(t *testing.T) {
	r := corruptible(t)
	// Re-place one object at its own extent under another record's tag.
	var victim, other *object
	for _, o := range r.objects() {
		if victim == nil {
			victim = o
		} else {
			other = o
			break
		}
	}
	ext, _ := r.space.Extent(victim.id)
	if err := r.space.Remove(victim.id); err != nil {
		t.Fatal(err)
	}
	if err := r.space.PlaceTagged(victim.id, ext, other.tag); err != nil {
		t.Fatal(err)
	}
	expectViolation(t, r, "carries tag")
}

func TestCheckerCatchesFootprintBlowup(t *testing.T) {
	r := corruptible(t)
	// Fake a bloated structure: stretch the last region's buffer.
	r.regions[len(r.regions)-1].bufSize += 10 * r.vol
	expectViolation(t, r, "Lemma 2.5")
}
