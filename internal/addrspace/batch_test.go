package addrspace

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
)

// applyRecorder captures MoveResults.
type applyRecorder []MoveResult

func (a *applyRecorder) add(m MoveResult) { *a = append(*a, m) }

// spacePair runs build against two fresh spaces so they share the whole
// history — placements and the freed-since-checkpoint set included.
func spacePair(opts Options, build func(*Space) error) (*Space, *Space, error) {
	s, m := New(opts), New(opts)
	if err := build(s); err != nil {
		return nil, nil, err
	}
	return s, m, build(m)
}

// ranked binds plan to s's index suffix from address from: it sets each
// relocation's Ref to its object's rank among the live objects starting
// at or after from — the handle BeginMoves expects.
// Relocations of objects outside that suffix keep their Ref.
func ranked(s *Space, from int64, plan []Relocation) []Relocation {
	rank := map[ID]int32{}
	s.ForEach(func(id ID, ext Extent) {
		if ext.Start >= from {
			rank[id] = int32(len(rank))
		}
	})
	for i := range plan {
		if r, ok := rank[plan[i].ID]; ok {
			plan[i].Ref = r
		}
	}
	return plan
}

// begin starts a session on plan, bound to the index suffix from address
// from, with the final order flush schedules hand it (finalOrderOf).
func begin(s *Space, plan []Relocation, from int64) (*MoveSession, error) {
	return s.BeginMoves(plan, from, finalOrderOf(plan))
}

// applySerial replays a plan through Move with the per-move blocking
// loop, recording the same observables a session's emitter reports.
func applySerial(t *testing.T, s *Space, plan []Relocation, budget int64) (int, int64, []MoveResult) {
	t.Helper()
	var out []MoveResult
	var vol int64
	for i, mv := range plan {
		if vol >= budget {
			return i, vol, out
		}
		old, ok := s.Extent(mv.ID)
		if !ok {
			t.Fatalf("serial: unknown object %d", mv.ID)
		}
		if old.Start == mv.To {
			continue
		}
		res := MoveResult{ID: mv.ID, Size: old.Size, From: old.Start, To: mv.To, PreFootprint: s.MaxEnd()}
		for {
			err := s.Move(mv.ID, mv.To)
			if err == nil {
				break
			}
			if errors.Is(err, ErrWouldBlock) {
				s.Checkpoint()
				res.Checkpointed = true
				continue
			}
			t.Fatalf("serial move %d to %d: %v", mv.ID, mv.To, err)
		}
		res.Footprint = s.MaxEnd()
		vol += old.Size
		out = append(out, res)
	}
	return len(plan), vol, out
}

// TestSessionMatchesSerial cross-checks a session's first chunk against
// per-move execution on randomized compaction-style plans, for both rule
// sets: the whole plan in one chunk on even seeds, a quota-bounded
// partial chunk on odd ones.
func TestSessionMatchesSerial(t *testing.T) {
	for _, opts := range []Options{RAM(), Durable()} {
		for seed := uint64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewPCG(seed, 0xba7c4))
			n := 20 + rng.IntN(60)
			sizes := make([]int64, n)
			gaps := make([]int64, n)
			for i := range sizes {
				sizes[i] = int64(1 + rng.IntN(9))
				gaps[i] = int64(rng.IntN(4))
			}
			s, mirror, err := spacePair(opts, func(sp *Space) error {
				pos := int64(0)
				for i := 1; i <= n; i++ {
					if err := sp.Place(ID(i), Extent{Start: pos + gaps[i-1], Size: sizes[i-1]}); err != nil {
						return err
					}
					pos += gaps[i-1] + sizes[i-1]
				}
				// Remove a few objects so the Durable runs have a freed
				// set to block on.
				for i := 1; i <= n; i += 7 {
					if err := sp.Remove(ID(i)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			// Plan: evacuate every survivor far right, then pack leftward
			// from zero — the shape of a real flush, self-overlap free.
			var plan []Relocation
			far := s.MaxEnd() + s.Volume()
			off := far
			s.ForEach(func(id ID, ext Extent) {
				plan = append(plan, Relocation{ID: id, To: off})
				off += ext.Size
			})
			cursor := int64(0)
			s.ForEach(func(id ID, ext Extent) {
				plan = append(plan, Relocation{ID: id, To: cursor})
				cursor += ext.Size
			})
			plan = ranked(s, 0, plan)

			budget := int64(1) << 40
			if seed%2 == 1 {
				budget = 1 + int64(rng.IntN(int(s.Volume()+1)))
			}
			sess, err := begin(s, plan, 0)
			if err != nil {
				t.Fatalf("opts %+v seed %d: BeginMoves: %v", opts, seed, err)
			}
			var got applyRecorder
			consumed, vol, err := sess.Advance(budget, got.add)
			if err != nil {
				t.Fatalf("opts %+v seed %d: Advance: %v", opts, seed, err)
			}
			wantConsumed, wantVol, want := applySerial(t, mirror, plan, budget)

			if consumed != wantConsumed || vol != wantVol {
				t.Fatalf("opts %+v seed %d: consumed/vol %d/%d, serial %d/%d",
					opts, seed, consumed, vol, wantConsumed, wantVol)
			}
			if len(got) != len(want) {
				t.Fatalf("opts %+v seed %d: %d results vs %d serial", opts, seed, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("opts %+v seed %d: result %d differs:\n batch  %+v\n serial %+v",
						opts, seed, i, got[i], want[i])
				}
			}
			if err := s.Verify(); err != nil {
				t.Fatalf("opts %+v seed %d: verify: %v", opts, seed, err)
			}
			if s.Moves() != mirror.Moves() || s.Checkpoints() != mirror.Checkpoints() ||
				s.BlockedWrites() != mirror.BlockedWrites() || s.FreedVolume() != mirror.FreedVolume() ||
				s.MaxEnd() != mirror.MaxEnd() {
				t.Fatalf("opts %+v seed %d: stats diverge: moves %d/%d ckpts %d/%d blocked %d/%d freed %d/%d maxend %d/%d",
					opts, seed, s.Moves(), mirror.Moves(), s.Checkpoints(), mirror.Checkpoints(),
					s.BlockedWrites(), mirror.BlockedWrites(), s.FreedVolume(), mirror.FreedVolume(),
					s.MaxEnd(), mirror.MaxEnd())
			}
			s.ForEach(func(id ID, ext Extent) {
				if got, _ := mirror.Extent(id); got != ext {
					t.Fatalf("opts %+v seed %d: object %d at %v, serial at %v", opts, seed, id, ext, got)
				}
			})
		}
	}
}

// TestSessionValidation exercises the up-front plan validation: every
// rejection leaves the space untouched. Refs are suffix ranks: with
// objects 1, 2, 3 at 0, 10, 20, the suffix from 0 ranks them 0, 1, 2 and
// the suffix from 10 ranks objects 2 and 3 as 0 and 1.
func TestSessionValidation(t *testing.T) {
	build := func(opts Options) *Space {
		s := New(opts)
		for i, ext := range []Extent{{0, 4}, {10, 4}, {20, 4}} {
			if err := s.PlaceTagged(ID(i+1), ext, int32(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	type entry struct {
		id  ID
		ext Extent
		tag int32
	}
	snapshot := func(s *Space) []entry {
		var out []entry
		s.ForEachTagged(func(id ID, ext Extent, tag int32) { out = append(out, entry{id, ext, tag}) })
		return out
	}
	cases := []struct {
		name string
		opts Options
		from int64
		plan []Relocation
		want error
	}{
		{"unknown object", RAM(), 0, []Relocation{{ID: 99, To: 50}}, ErrUnknownObject},
		{"negative target", RAM(), 0, []Relocation{{ID: 1, To: -3}}, ErrBadExtent},
		{"lands on unmoved", RAM(), 0, []Relocation{{ID: 1, To: 12}}, ErrOverlap},
		{"moved collide", RAM(), 0, []Relocation{{ID: 1, To: 50}, {ID: 2, To: 52, Ref: 1}}, ErrOverlap},
		{"strict self overlap", Durable(), 0, []Relocation{{ID: 1, To: 2}}, ErrSelfOverlap},
		{"ref out of range", RAM(), 0, []Relocation{{ID: 1, To: 50, Ref: 7}}, nil},
		{"negative ref", RAM(), 0, []Relocation{{ID: 1, To: 50, Ref: -1}}, nil},
		{"ref reuse across objects", RAM(), 0, []Relocation{{ID: 1, To: 50}, {ID: 2, To: 60}}, ErrUnknownObject},
		{"ref names another object", RAM(), 0, []Relocation{{ID: 2, To: 50, Ref: 2}}, ErrUnknownObject},
		{"suffix ref names another object", RAM(), 10, []Relocation{{ID: 2, To: 50, Ref: 1}}, ErrUnknownObject},
		{"ref past the suffix end", RAM(), 10, []Relocation{{ID: 3, To: 50, Ref: 2}}, nil},
		{"object left of from", RAM(), 10, []Relocation{{ID: 1, To: 50, Ref: 0}}, ErrUnknownObject},
		{"target below from", RAM(), 10, []Relocation{{ID: 2, To: 5, Ref: 0}}, ErrBadExtent},
	}
	for _, c := range cases {
		s := build(c.opts)
		before, moves := snapshot(s), s.Moves()
		_, err := begin(s, c.plan, c.from)
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: got error %v, want %v", c.name, err, c.want)
		}
		if err == nil {
			t.Errorf("%s: invalid plan accepted", c.name)
		}
		if !slices.Equal(snapshot(s), before) || s.Moves() != moves {
			t.Errorf("%s: rejected plan mutated the space", c.name)
		}
		if err := s.Verify(); err != nil {
			t.Errorf("%s: verify after rejection: %v", c.name, err)
		}
	}
	// Memmove semantics allow self-overlap without strict mode.
	s := build(RAM())
	sess, err := begin(s, []Relocation{{ID: 1, To: 2}}, 0)
	if err == nil {
		_, _, err = sess.Advance(1<<40, nil)
	}
	if err != nil {
		t.Errorf("memmove self overlap rejected: %v", err)
	}
}

// TestSessionRevisits covers plans that move the same object several
// times, including back to its origin (net no-op must keep its index
// entry valid).
func TestSessionRevisits(t *testing.T) {
	s := New(RAM())
	for i, ext := range []Extent{{0, 4}, {10, 4}} {
		if err := s.Place(ID(i+1), ext); err != nil {
			t.Fatal(err)
		}
	}
	plan := ranked(s, 0, []Relocation{
		{ID: 1, To: 30}, // park far right
		{ID: 2, To: 40},
		{ID: 1, To: 0}, // back to origin: net no-op
		{ID: 2, To: 4}, // pack against it
	})
	sess, err := begin(s, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rec applyRecorder
	consumed, vol, err := sess.Advance(1<<40, rec.add)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != 4 || vol != 16 {
		t.Fatalf("consumed %d vol %d, want 4/16", consumed, vol)
	}
	// Footprint trajectory: 34 after parking 1, 44 after parking 2, still
	// 44 while 2 is parked, 8 at the end.
	wantFoot := []int64{34, 44, 44, 8}
	for i, m := range rec {
		if m.Footprint != wantFoot[i] {
			t.Fatalf("move %d footprint %d, want %d (%+v)", i, m.Footprint, wantFoot[i], m)
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Extent(1); got.Start != 0 {
		t.Fatalf("object 1 at %v, want start 0", got)
	}
	if got, _ := s.Extent(2); got.Start != 4 {
		t.Fatalf("object 2 at %v, want start 4", got)
	}
}

// TestSessionBudget pins the quota semantics: entries are consumed while
// the applied volume is below budget (overshooting by at most one move),
// no-ops consume entries but no budget, and a second Advance resumes
// where the first stopped.
func TestSessionBudget(t *testing.T) {
	s := New(RAM())
	for i := 0; i < 4; i++ {
		if err := s.Place(ID(i+1), Extent{Start: int64(i * 10), Size: 4}); err != nil {
			t.Fatal(err)
		}
	}
	plan := ranked(s, 0, []Relocation{
		{ID: 1, To: 0},   // no-op: consumes the entry, not the budget
		{ID: 2, To: 50},  // 4 volume
		{ID: 3, To: 60},  // 4 volume: crosses the budget, still applied
		{ID: 4, To: 100}, // not reached
	})
	sess, err := begin(s, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	consumed, vol, err := sess.Advance(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != 3 || vol != 8 {
		t.Fatalf("consumed %d vol %d, want 3/8", consumed, vol)
	}
	if got, _ := s.Extent(4); got.Start != 30 {
		t.Fatalf("object 4 moved to %v despite exhausted budget", got)
	}
	if consumed, vol, err = sess.Advance(1, nil); err != nil || consumed != 1 || vol != 4 {
		t.Fatalf("resume: consumed %d vol %d err %v, want 1/4/nil", consumed, vol, err)
	}
	if !sess.Done() {
		t.Fatal("session still active after its last entry")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}
