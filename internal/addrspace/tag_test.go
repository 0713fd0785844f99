package addrspace

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// tagOf is the tag these tests attach to object id.
func tagOf(id ID) int32 { return int32(id)*7 + 3 }

// tagSpace places 30 randomly sized, randomly spaced objects, each tagged
// tagOf(id), and removes a few so the durable rules have freed space to
// block on.
func tagSpace(t *testing.T, opts Options, seed uint64) *Space {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x7a9))
	s := New(opts)
	pos := int64(0)
	for id := ID(1); id <= 30; id++ {
		pos += int64(rng.IntN(3))
		size := int64(1 + rng.IntN(5))
		if err := s.PlaceTagged(id, Extent{Start: pos, Size: size}, tagOf(id)); err != nil {
			t.Fatal(err)
		}
		pos += size
	}
	for id := ID(3); id <= 30; id += 8 {
		if err := s.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// suffixPlan is a flush-shaped plan over the objects starting at or after
// from, bound to that suffix: park them past the frontier, then pack them
// leftward from from.
func suffixPlan(s *Space, from int64) []Relocation {
	var plan []Relocation
	park := s.MaxEnd() + s.Volume()
	pack := from
	var packs []Relocation
	s.ForEach(func(id ID, ext Extent) {
		if ext.Start < from {
			return
		}
		plan = append(plan, Relocation{ID: id, To: park})
		packs = append(packs, Relocation{ID: id, To: pack})
		park += ext.Size
		pack += ext.Size
	})
	return ranked(s, from, append(plan, packs...))
}

// checkTags fails unless every live object's index entry carries
// tagOf(id).
func checkTags(t *testing.T, s *Space) {
	t.Helper()
	s.ForEachTagged(func(id ID, ext Extent, tag int32) {
		if tag != tagOf(id) {
			t.Fatalf("object %d at %v carries tag %d, want %d", id, ext, tag, tagOf(id))
		}
	})
}

// TestTagsSurviveMoves: every executor carries an entry's tag to the
// object's new extent — Move, and a session's whole-plan, batched-chunk
// and observed-chunk paths, the whole-plan one with and without an
// emitter — on plans bound to a suffix that starts mid-index, leaving the
// same layout as the per-move path.
func TestTagsSurviveMoves(t *testing.T) {
	s := tagSpace(t, RAM(), 1)
	var even []ID
	s.ForEach(func(id ID, _ Extent) {
		if id%2 == 0 {
			even = append(even, id)
		}
	})
	far := s.MaxEnd()
	for _, id := range even {
		ext, _ := s.Extent(id)
		if err := s.Move(id, far); err != nil {
			t.Fatal(err)
		}
		far += ext.Size
	}
	checkTags(t, s)
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}

	for _, opts := range []Options{RAM(), Durable()} {
		for _, r := range planRunners() {
			s, mirror := tagSpace(t, opts, 2), tagSpace(t, opts, 2)
			from, _ := s.Extent(10)
			plan := suffixPlan(s, from.Start)
			if err := r.run(s, plan, from.Start); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			applySerial(t, mirror, plan, 1<<40)
			if err := s.Verify(); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			checkTags(t, s)
			s.ForEach(func(id ID, ext Extent) {
				if want, _ := mirror.Extent(id); want != ext {
					t.Fatalf("%s: object %d at %v, per-move path at %v", r.name, id, ext, want)
				}
			})
		}
	}
}

// TestSuffixTags: SuffixTags yields the id, extent and tag of each
// object starting at or after from in address order — rank order — and
// Place tags 0.
func TestSuffixTags(t *testing.T) {
	s := tagSpace(t, RAM(), 4)
	if err := s.Place(99, Extent{Start: s.MaxEnd() + 1, Size: 1}); err != nil {
		t.Fatal(err)
	}
	from, _ := s.Extent(12)
	var want []taggedEntry
	for _, e := range taggedEntries(s) {
		if e.ext.Start >= from.Start {
			want = append(want, e)
		}
	}
	if last := want[len(want)-1]; last.id != 99 || last.tag != 0 {
		t.Fatalf("last suffix entry is object %d tagged %d, want object 99 tagged 0", last.id, last.tag)
	}
	var got []taggedEntry
	s.SuffixTags(from.Start, func(id ID, ext Extent, tag int32) { got = append(got, taggedEntry{id, ext, tag}) })
	if !slices.Equal(got, want) {
		t.Fatalf("SuffixTags = %v, want %v", got, want)
	}
	s.SuffixTags(s.MaxEnd(), func(id ID, ext Extent, tag int32) {
		t.Fatalf("SuffixTags past the end yielded object %d at %v tagged %d", id, ext, tag)
	})
}
