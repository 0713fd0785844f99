package addrspace

import (
	"errors"
	"math/rand/v2"
	"testing"
)

// buildChurnSpaces builds a pair of spaces sharing a randomized history
// and returns a flush-shaped plan over the survivors (evacuate far right,
// pack leftward), bound to the whole index, exactly like the first-chunk
// cross-check.
func buildChurnSpaces(t *testing.T, opts Options, seed uint64) (s, mirror *Space, plan []Relocation) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x5e55))
	n := 20 + rng.IntN(80)
	sizes := make([]int64, n)
	gaps := make([]int64, n)
	for i := range sizes {
		sizes[i] = int64(1 + rng.IntN(9))
		gaps[i] = int64(rng.IntN(4))
	}
	var err error
	s, mirror, err = spacePair(opts, func(sp *Space) error {
		pos := int64(0)
		for i := 1; i <= n; i++ {
			if err := sp.Place(ID(i), Extent{Start: pos + gaps[i-1], Size: sizes[i-1]}); err != nil {
				return err
			}
			pos += gaps[i-1] + sizes[i-1]
		}
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
	return s, mirror, ranked(s, 0, plan)
}

// TestSessionMatchesSerialChunked drives a session through random budget
// chunks and the mirror through the per-move loop with identical chunking,
// asserting identical MoveResults, stats, layouts, and a verified space
// after every chunk — the property the deamortized variant depends on.
func TestSessionMatchesSerialChunked(t *testing.T) {
	for _, opts := range []Options{RAM(), Durable()} {
		for seed := uint64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewPCG(seed, 0xc4a))
			s, mirror, plan := buildChurnSpaces(t, opts, seed)
			sess, err := begin(s, plan, 0)
			if err != nil {
				t.Fatalf("opts %+v seed %d: BeginMoves: %v", opts, seed, err)
			}
			next := 0
			for !sess.Done() {
				budget := 1 + int64(rng.IntN(12))
				var got applyRecorder
				consumed, vol, err := sess.Advance(budget, got.add)
				if err != nil {
					t.Fatalf("opts %+v seed %d: Advance: %v", opts, seed, err)
				}
				wantConsumed, wantVol, want := applySerial(t, mirror, plan[next:], budget)
				if consumed != wantConsumed || vol != wantVol {
					t.Fatalf("opts %+v seed %d at %d: consumed/vol %d/%d, serial %d/%d",
						opts, seed, next, consumed, vol, wantConsumed, wantVol)
				}
				if len(got) != len(want) {
					t.Fatalf("opts %+v seed %d at %d: %d results vs %d serial", opts, seed, next, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("opts %+v seed %d at %d: result %d differs:\n session %+v\n serial  %+v",
							opts, seed, next, i, got[i], want[i])
					}
				}
				next += consumed
				// The index must be fully consistent between chunks.
				if err := s.Verify(); err != nil {
					t.Fatalf("opts %+v seed %d at %d: verify: %v", opts, seed, next, err)
				}
				if s.MaxEnd() != mirror.MaxEnd() {
					t.Fatalf("opts %+v seed %d at %d: maxend %d vs %d", opts, seed, next, s.MaxEnd(), mirror.MaxEnd())
				}
			}
			if s.Moves() != mirror.Moves() || s.Checkpoints() != mirror.Checkpoints() ||
				s.BlockedWrites() != mirror.BlockedWrites() || s.FreedVolume() != mirror.FreedVolume() {
				t.Fatalf("opts %+v seed %d: stats diverge: moves %d/%d ckpts %d/%d blocked %d/%d freed %d/%d",
					opts, seed, s.Moves(), mirror.Moves(), s.Checkpoints(), mirror.Checkpoints(),
					s.BlockedWrites(), mirror.BlockedWrites(), s.FreedVolume(), mirror.FreedVolume())
			}
			s.ForEach(func(id ID, ext Extent) {
				if got, _ := mirror.Extent(id); got != ext {
					t.Fatalf("opts %+v seed %d: object %d at %v, serial at %v", opts, seed, id, ext, got)
				}
			})
		}
	}
}

// TestSessionBatchedChunksMatchSerial drives the unobserved fast path
// (nil emitter → chunk-end index reconciliation through sorted range
// edits) and asserts it leaves the space byte-for-byte where the per-move
// loop does: verified index, identical stats, layouts, and footprints
// after every chunk.
func TestSessionBatchedChunksMatchSerial(t *testing.T) {
	for _, opts := range []Options{RAM(), Durable()} {
		for seed := uint64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewPCG(seed, 0xba7c4ed))
			s, mirror, plan := buildChurnSpaces(t, opts, seed+100)
			sess, err := begin(s, plan, 0)
			if err != nil {
				t.Fatalf("opts %+v seed %d: BeginMoves: %v", opts, seed, err)
			}
			// Burn the pristine state so the bulk path cannot trigger and
			// every chunk exercises the batched reconciliation.
			next := 0
			for !sess.Done() {
				budget := 1 + int64(rng.IntN(25))
				consumed, vol, err := sess.Advance(budget, nil)
				if err != nil {
					t.Fatalf("opts %+v seed %d at %d: Advance: %v", opts, seed, next, err)
				}
				wantConsumed, wantVol, _ := applySerial(t, mirror, plan[next:], budget)
				if consumed != wantConsumed || vol != wantVol {
					t.Fatalf("opts %+v seed %d at %d: consumed/vol %d/%d, serial %d/%d",
						opts, seed, next, consumed, vol, wantConsumed, wantVol)
				}
				next += consumed
				if err := s.Verify(); err != nil {
					t.Fatalf("opts %+v seed %d at %d: verify: %v", opts, seed, next, err)
				}
				if s.MaxEnd() != mirror.MaxEnd() {
					t.Fatalf("opts %+v seed %d at %d: maxend %d vs %d", opts, seed, next, s.MaxEnd(), mirror.MaxEnd())
				}
			}
			if s.Moves() != mirror.Moves() || s.Checkpoints() != mirror.Checkpoints() ||
				s.BlockedWrites() != mirror.BlockedWrites() || s.FreedVolume() != mirror.FreedVolume() {
				t.Fatalf("opts %+v seed %d: stats diverge: moves %d/%d ckpts %d/%d blocked %d/%d freed %d/%d",
					opts, seed, s.Moves(), mirror.Moves(), s.Checkpoints(), mirror.Checkpoints(),
					s.BlockedWrites(), mirror.BlockedWrites(), s.FreedVolume(), mirror.FreedVolume())
			}
			s.ForEach(func(id ID, ext Extent) {
				if got, _ := mirror.Extent(id); got != ext {
					t.Fatalf("opts %+v seed %d: object %d at %v, serial at %v", opts, seed, id, ext, got)
				}
			})
		}
	}
}

// TestSessionBulkFirstChunk: a first Advance whose budget covers the whole
// plan takes the bulk path, consumes the plan in one chunk, ends the
// session, and matches the per-move path — results, layout, and stats.
func TestSessionBulkFirstChunk(t *testing.T) {
	for _, opts := range []Options{RAM(), Durable()} {
		s, mirror, plan := buildChurnSpaces(t, opts, 99)
		sess, err := begin(s, plan, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got applyRecorder
		consumed, vol, err := sess.Advance(1<<40, got.add)
		if err != nil {
			t.Fatal(err)
		}
		if !sess.Done() || consumed != len(plan) {
			t.Fatalf("bulk advance consumed %d of %d", consumed, len(plan))
		}
		wantConsumed, wantVol, want := applySerial(t, mirror, plan, 1<<40)
		if consumed != wantConsumed || vol != wantVol || len(got) != len(want) {
			t.Fatalf("bulk session diverges from the per-move path: %d/%d vs %d/%d, %d vs %d results",
				consumed, vol, wantConsumed, wantVol, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("result %d differs:\n session %+v\n serial  %+v", i, got[i], want[i])
			}
		}
		if err := s.Verify(); err != nil {
			t.Fatal(err)
		}
		if s.Moves() != mirror.Moves() || s.Checkpoints() != mirror.Checkpoints() ||
			s.BlockedWrites() != mirror.BlockedWrites() || s.FreedVolume() != mirror.FreedVolume() ||
			s.MaxEnd() != mirror.MaxEnd() {
			t.Fatalf("stats diverge: moves %d/%d ckpts %d/%d blocked %d/%d freed %d/%d maxend %d/%d",
				s.Moves(), mirror.Moves(), s.Checkpoints(), mirror.Checkpoints(),
				s.BlockedWrites(), mirror.BlockedWrites(), s.FreedVolume(), mirror.FreedVolume(),
				s.MaxEnd(), mirror.MaxEnd())
		}
		s.ForEach(func(id ID, ext Extent) {
			if w, _ := mirror.Extent(id); w != ext {
				t.Fatalf("object %d at %v vs %v", id, ext, w)
			}
		})
	}
}

// TestSessionMidPlacements: placing and removing objects beyond the plan's
// range between chunks (the update log's behavior) must leave the session
// unaffected, the index consistent, and every entry's tag in place, on
// the batched and the observed chunk paths. After the first chunk enough
// objects are placed to rebuild the id table, which moves slots under the
// session's feet.
func TestSessionMidPlacements(t *testing.T) {
	for _, emit := range []func(MoveResult){nil, func(MoveResult) {}} {
		s := New(Durable())
		for i := 0; i < 6; i++ {
			if err := s.PlaceTagged(ID(i+1), Extent{Start: int64(i * 10), Size: 4}, tagOf(ID(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		// Park everything at 100.. then pack to 0.. .
		var plan []Relocation
		off := int64(100)
		for i := 0; i < 6; i++ {
			plan = append(plan, Relocation{ID: ID(i + 1), To: off})
			off += 4
		}
		pos := int64(0)
		for i := 0; i < 6; i++ {
			plan = append(plan, Relocation{ID: ID(i + 1), To: pos})
			pos += 4
		}
		sess, err := begin(s, ranked(s, 0, plan), 0)
		if err != nil {
			t.Fatal(err)
		}
		logBase := int64(200)
		logID := ID(1000)
		rebuilt := false
		for !sess.Done() {
			if _, _, err := sess.Advance(5, emit); err != nil {
				t.Fatal(err)
			}
			if !rebuilt && !sess.Done() {
				slots := map[ID]int32{}
				s.byStart.forEach(func(p placement) { slots[p.id] = p.slot })
				for rebuilds := s.IDRebuilds(); s.IDRebuilds() == rebuilds; logID++ {
					if logID > 2000 {
						t.Fatal("no id table rebuild after 1000 placements")
					}
					if err := s.PlaceTagged(logID, Extent{Start: logBase, Size: 3}, tagOf(logID)); err != nil {
						t.Fatalf("mid-session place: %v", err)
					}
					logBase += 3
				}
				moved := false
				s.byStart.forEach(func(p placement) {
					if old, ok := slots[p.id]; ok && old != p.slot {
						moved = true
					}
				})
				if !moved {
					t.Fatal("id table rebuilt without moving any slot")
				}
				rebuilt = true
			}
			// Log-style traffic past the plan's range.
			if err := s.PlaceTagged(logID, Extent{Start: logBase, Size: 3}, tagOf(logID)); err != nil {
				t.Fatalf("mid-session place: %v", err)
			}
			logBase += 3
			logID++
			if logID%2 == 0 {
				if err := s.Remove(logID - 1); err != nil {
					t.Fatalf("mid-session remove: %v", err)
				}
			}
			if err := s.Verify(); err != nil {
				t.Fatal(err)
			}
			checkTags(t, s)
		}
		if !rebuilt {
			t.Fatal("the session finished before an id table rebuild")
		}
		for i := 0; i < 6; i++ {
			if ext, _ := s.Extent(ID(i + 1)); ext.Start != int64(i*4) {
				t.Fatalf("object %d at %v, want start %d", i+1, ext, i*4)
			}
		}
		checkTags(t, s)
	}
}

// TestSessionIntermediateOverlap: a plan whose final layout is valid but
// whose chunk boundary lands on an overlapping intermediate layout is the
// schedule builder's bug; the observed path reports it as ErrOverlap with
// the move unapplied, the unobserved path panics rather than keep a
// corrupt index.
func TestSessionIntermediateOverlap(t *testing.T) {
	build := func() (*Space, *MoveSession) {
		s := New(RAM())
		for i, ext := range []Extent{{0, 5}, {10, 5}} {
			if err := s.Place(ID(i+1), ext); err != nil {
				t.Fatal(err)
			}
		}
		// A's final position (20) is disjoint, but its first hop (8)
		// overlaps B at [10,15).
		sess, err := begin(s, ranked(s, 0, []Relocation{{ID: 1, To: 8}, {ID: 1, To: 20}}), 0)
		if err != nil {
			t.Fatalf("final layout is valid, BeginMoves rejected it: %v", err)
		}
		return s, sess
	}
	// Observed path: graceful error, index still consistent.
	s, sess := build()
	var rec applyRecorder
	if _, _, err := sess.Advance(5, rec.add); !errors.Is(err, ErrOverlap) {
		t.Fatalf("observed path: err %v, want ErrOverlap", err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("observed path left inconsistent space: %v", err)
	}
	// Unobserved path: the chunk-end reconciliation panics.
	_, sess = build()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unobserved path: no panic on overlapping intermediate layout")
			}
		}()
		sess.Advance(5, nil)
	}()
}

// TestSessionGuards pins the session discipline: empty plans, invalid
// tails, and incomplete or unsorted final orders are rejected up front; a
// second BeginMoves fails while a plan is active and succeeds once an
// Advance has consumed the last entry; Advance past the end is a no-op.
func TestSessionGuards(t *testing.T) {
	s := New(RAM())
	for i := 0; i < 3; i++ {
		if err := s.Place(ID(i+1), Extent{Start: int64(i * 10), Size: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := begin(s, nil, 0); err == nil {
		t.Fatal("empty plan accepted")
	}
	// Whole-plan validation: the second entry collides with object 3.
	bad := ranked(s, 0, []Relocation{{ID: 1, To: 50}, {ID: 2, To: 22}})
	if _, err := begin(s, bad, 0); !errors.Is(err, ErrOverlap) {
		t.Fatalf("invalid tail: err %v, want ErrOverlap", err)
	}
	plan := ranked(s, 0, []Relocation{{ID: 1, To: 50}, {ID: 2, To: 60}})
	for name, order := range map[string][]int32{
		"missing":    nil,
		"incomplete": {0},
		"unsorted":   {1, 0},
		"repeated":   {0, 0, 1},
	} {
		if _, err := s.BeginMoves(plan, 0, order); err == nil {
			t.Fatalf("%s final order %v accepted", name, order)
		}
	}
	if s.Moves() != 0 {
		t.Fatal("rejected plan mutated the space")
	}
	sess, err := begin(s, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Advance(1, nil); err != nil {
		t.Fatal(err)
	}
	if sess.Done() {
		t.Fatal("budget 1 finished an 8-volume plan")
	}
	if _, err := begin(s, plan, 0); err == nil {
		t.Fatal("second concurrent session accepted")
	}
	if _, _, err := sess.Advance(1<<40, nil); err != nil {
		t.Fatal(err)
	}
	if !sess.Done() {
		t.Fatal("session still active after its last entry")
	}
	moves := s.Moves()
	if n, vol, err := sess.Advance(1<<40, nil); n != 0 || vol != 0 || err != nil || s.Moves() != moves {
		t.Fatalf("Advance past the end: %d entries, %d volume, err %v, %d moves", n, vol, err, s.Moves()-moves)
	}
	// The space is free for the next plan, bound to the index as it now
	// stands (object 3 ranks first).
	back := ranked(s, 0, []Relocation{{ID: 1, To: 0}, {ID: 2, To: 10}})
	sess, err = begin(s, back, 0)
	if err != nil {
		t.Fatalf("session after the last entry: %v", err)
	}
	if _, _, err := sess.Advance(1<<40, nil); err != nil {
		t.Fatal(err)
	}
	if !sess.Done() {
		t.Fatal("whole-plan Advance left the session active")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}
