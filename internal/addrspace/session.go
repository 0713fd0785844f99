package addrspace

import (
	"fmt"
	"slices"
)

// This file implements the move session: the one executor every flush
// plan runs through.
//
// A Section 2 or 3.2 flush applies its whole plan inside one request; a
// Section 3.3 flush plan executes as volume-bounded chunks spread over
// many subsequent requests. BeginMoves validates the entire plan once
// (simulation, ref discipline, strict-rule self-overlaps, the final order
// and the final layout's disjointness), then Advance applies it chunk by
// chunk. A first Advance whose budget covers the whole plan takes the bulk
// flatten-merge path (batch.go), which is the cheapest for atomic
// flushes. Any other chunk is applied with an incremental suffix rebuild
// instead of a flatten-and-merge per chunk — O(n) bookkeeping for an
// O(chunk) quota, which would turn one flush into O(n²/chunk) index work.
// Without an observer a chunk reconciles the index in sorted range edits
// at its end; with one, every applied relocation splices its own index
// entry (one O(log n) probe plus an O(B) block edit, B the constant block
// size), so the observer sees exact per-move footprints. Either way a
// chunk of volume q costs O(q/w·(log n + B)) for moves of size w —
// independent of the structure size — while the index, the id table,
// counters, cell stamps, and the freed set stay exactly as per-move
// execution would leave them after every chunk.
//
// Observable equivalence with the per-move reference path is asserted by
// the cross-check tests here and the differential tests in core.

// MoveSession is an in-progress move plan, created by BeginMoves. Each
// Space owns one session value and BeginMoves reuses it, so starting a
// plan allocates nothing and at most one plan is active at a time.
// Advance consumes the plan in volume-bounded chunks; the Advance that
// consumes the last entry ends the session, and the handle must not be
// used after the next BeginMoves.
//
// Between Advance calls the Space is fully consistent and usable: queries
// (MaxEnd, Extent, ForEach, Verify) see every applied relocation, and
// mutations outside the plan's address range — the update log placing and
// removing objects past the overflow segment — are legal. Mutating plan
// objects themselves mid-session is not.
type MoveSession struct {
	s     *Space
	plan  []Relocation // nil once every entry is consumed
	b     *batchState
	next  int   // next plan entry to execute
	total int64 // volume the whole plan applies
	cut   pos   // bulk-commit cut position (valid while gen matches)
	gen   uint64
	epoch int32 // chunk counter for the per-ref chunk scratch
}

// BeginMoves validates plan in its entirety against the current layout,
// bound to the index suffix from address from, and returns the Space's
// session, set up to execute it. The plan must be non-empty, and no other
// plan may be active. No Space state changes until Advance.
//
// finalOrder lists the plan's refs in ascending order of their final
// positions, which lets the whole-plan path rebuild the index without a
// sort. It must list every object the plan moves, once; refs of objects
// the plan does not move are ignored, and an object that ends where it
// started may sit anywhere in it.
//
// Validation covers refs out of range, refs naming a different object
// (ErrUnknownObject), targets below from (ErrBadExtent), strict-rule
// self-overlaps, the final order, and any overlap in the resulting layout
// (moved targets against each other and against unmoved objects); each
// fails the call with the Space untouched. Intermediate layouts are the
// caller's responsibility — flush schedules guarantee them by
// construction, and WithInvariantChecks cross-checks every chunk against
// a full substrate Verify.
func (s *Space) BeginMoves(plan []Relocation, from int64, finalOrder []int32) (*MoveSession, error) {
	if len(plan) == 0 {
		return nil, fmt.Errorf("addrspace: BeginMoves with an empty plan")
	}
	if s.session.plan != nil {
		return nil, fmt.Errorf("addrspace: a move session is already active")
	}
	b, cutPos, vol, err := s.simulatePlan(plan, from, finalOrder)
	if err != nil {
		return nil, err
	}
	s.session = MoveSession{s: s, plan: plan, b: b, total: vol, cut: cutPos, gen: s.byStart.gen}
	return &s.session, nil
}

// Done reports whether every plan entry has been consumed.
func (ms *MoveSession) Done() bool { return ms.plan == nil }

// Advance executes the next chunk of the plan: entries keep being
// consumed while the volume applied in this call is below budget,
// overshooting by at most one move, exactly mirroring a quota-driven loop
// over Move (no-op entries consume no budget). It returns how many plan
// entries were consumed and the volume they moved. Once the plan is
// consumed the session ends, and further calls are no-ops.
//
// emit, if non-nil, observes every applied relocation in order with exact
// per-move footprints, checkpoint blocking included. Object positions
// (Extent) are visible to it exactly as the per-move path would show them
// — in particular the checkpoint hooks of a block translation layer
// snapshot correct addresses — and each move is reported before its bytes
// are copied. Index-derived queries (MaxEnd, ForEach, further mutations)
// are off limits inside the callback, but valid again as soon as Advance
// returns.
//
// The final layout was validated by BeginMoves; intermediate layouts are
// the caller's responsibility (flush schedules guarantee them by
// construction), but violations on a partial chunk do not go unnoticed:
// with an emitter, each relocation is checked against its index neighbors
// and a violation fails the call with the offending move unapplied and the
// index still consistent; without one, the chunk-end reconciliation
// detects the overlap after per-move state (counters, freed set, id
// table) has already advanced and panics rather than leave a silently
// corrupt index behind — the same philosophy as the exact-search desync
// panic in find.
func (ms *MoveSession) Advance(budget int64, emit func(MoveResult)) (consumed int, volume int64, err error) {
	if ms.plan == nil || budget <= 0 {
		return 0, 0, nil
	}
	b := ms.b
	start := ms.next
	if start == 0 {
		// Rewind the simulation cursors (simulatePlan left them at the
		// plan's final positions).
		for _, ref := range b.touched {
			b.curStart[ref] = b.suffix[ref].ext.Start
		}
	}
	switch {
	case start == 0 && budget >= ms.total && ms.s.byStart.gen == ms.gen:
		// A first chunk that provably consumes the whole plan commits
		// through the bulk flatten-merge path prepared at BeginMoves. The
		// index generation guard proves the pre-merged suffix is still
		// current.
		volume = ms.executeBulk(emit)
		ms.next = len(ms.plan)
	case emit == nil:
		// No per-move observer: the chunk's index reconciliation batches
		// into sorted range edits at the end.
		volume = ms.advanceBatched(budget)
	default:
		volume, err = ms.advanceObserved(budget, emit)
	}
	consumed = ms.next - start
	if ms.next == len(ms.plan) {
		ms.plan = nil
	}
	return consumed, volume, err
}

// advanceObserved is Advance's observed partial chunk: each relocation
// splices its own index entry (applyOne), so the emitter sees exact
// per-move footprints and an overlapping intermediate layout fails the
// chunk cleanly.
func (ms *MoveSession) advanceObserved(budget int64, emit func(MoveResult)) (volume int64, err error) {
	s, b := ms.s, ms.b
	t0 := s.moveClock()
	for ms.next < len(ms.plan) && volume < budget {
		mv := ms.plan[ms.next]
		oldStart := b.oldSteps[ms.next]
		if mv.To != oldStart {
			size := b.suffix[mv.Ref].ext.Size
			if err = s.applyOne(mv, oldStart, size, emit); err != nil {
				break
			}
			b.curStart[mv.Ref] = mv.To
			volume += size
		}
		ms.next++
	}
	s.addMoveTime(t0)
	return volume, err
}

// advanceBatched is Advance's unobserved fast path. Per relocation it
// evolves everything except the index — checkpoint blocking, the freed
// set, cell stamps, counters, and the eagerly synced id table, in plan
// order, exactly as the per-move path does — then reconciles the index
// once: each object's entry moves from its position at chunk start to its
// position at chunk end (intermediate hops within the chunk are
// unobservable without an emitter), applied as sorted range edits. Flush
// chunks relocate address-contiguous runs, so the edits collapse into a
// handful of block splices: O(moves + B + log n) per chunk instead of a
// tail memmove and three searches per move.
//
// Placements between chunks (the update log) can rebuild the id table,
// which moves every slot, so each relocation looks its slot up by id and
// refreshes the session's snapshot entry before the chunk-end reinsert
// copies it into the index.
func (ms *MoveSession) advanceBatched(budget int64) (volume int64) {
	s := ms.s
	b := ms.b
	ms.epoch++
	refs := b.chunkRefs[:0]
	t0 := s.moveClock()
	for ; ms.next < len(ms.plan) && volume < budget; ms.next++ {
		mv := ms.plan[ms.next]
		oldStart := b.oldSteps[ms.next]
		if mv.To == oldStart {
			continue
		}
		size := b.suffix[mv.Ref].ext.Size
		target := Extent{Start: mv.To, Size: size}
		if s.opts.CheckpointRule {
			s.vacate(Extent{Start: oldStart, Size: size}, target)
		}
		if b.chunkEpoch[mv.Ref] != ms.epoch {
			b.chunkEpoch[mv.Ref] = ms.epoch
			b.chunkFrom[mv.Ref] = oldStart
			refs = append(refs, mv.Ref)
		}
		slot := s.slotOf(mv.ID)
		s.ids.ents[slot].ext = target
		b.suffix[mv.Ref].slot = slot
		s.stampCells(target, mv.ID)
		if s.data != nil {
			s.data.Copy(target.Start, oldStart, size)
		}
		s.moves++
		b.curStart[mv.Ref] = mv.To
		volume += size
	}
	s.addMoveTime(t0)
	b.chunkRefs = refs
	dels := b.chunkDels[:0]
	ins := b.chunkIns[:0]
	for _, ref := range refs {
		from, to := b.chunkFrom[ref], b.curStart[ref]
		if from == to {
			continue // net no-op within the chunk: the entry is current
		}
		dels = append(dels, from)
		p := b.suffix[ref]
		p.ext.Start = to
		ins = append(ins, p)
	}
	b.chunkDels, b.chunkIns = dels, ins
	slices.Sort(dels)
	slices.SortFunc(ins, byStart)
	s.byStart.removeStarts(dels)
	if err := s.byStart.insertRuns(ins); err != nil {
		// Counters, the freed set, and the id table already advanced and
		// part of the reconciliation may have landed: there is no
		// consistent state to report an error from. A schedule with an
		// overlapping intermediate layout is a bug in its builder; fail
		// loudly instead of leaving a corrupt index for a later find to
		// trip over.
		panic(fmt.Sprintf("addrspace: flush chunk produced an overlapping intermediate layout: %v", err))
	}
	return volume
}

// applyOne executes a single validated relocation with an incremental
// index splice that keeps the entry's tag and slot, evolving the Space
// exactly as Move would: transparent checkpoint blocking, freed-set
// growth, cell stamps, counters, and an eagerly synced id table, written
// by the slot the live index entry records. A target that overlaps a live
// neighbor fails the move with nothing applied.
func (s *Space) applyOne(mv Relocation, oldStart, size int64, emit func(MoveResult)) error {
	old := Extent{Start: oldStart, Size: size}
	target := Extent{Start: mv.To, Size: size}
	pre := s.MaxEnd()
	at := s.byStart.find(mv.ID, old)
	entry := s.byStart.at(at)
	s.byStart.removeAt(at)
	// Intermediate-layout guard: with the old entry gone, the target must
	// fall strictly between its prospective index neighbors.
	ins := s.byStart.lowerBound(target.Start)
	if pp, ok := s.byStart.prev(ins); ok {
		if n := s.byStart.at(pp); n.ext.End() > target.Start {
			s.byStart.insert(entry)
			return fmt.Errorf("%w: move of %d to %v over %d at %v", ErrOverlap, mv.ID, target, n.id, n.ext)
		}
	}
	if s.byStart.valid(ins) {
		if n := s.byStart.at(ins); target.End() > n.ext.Start {
			s.byStart.insert(entry)
			return fmt.Errorf("%w: move of %d to %v over %d at %v", ErrOverlap, mv.ID, target, n.id, n.ext)
		}
	}
	checkpointed := s.opts.CheckpointRule && s.vacate(old, target)
	entry.ext = target
	s.byStart.insert(entry)
	s.ids.setExt(entry.slot, mv.ID, target)
	s.stampCells(target, mv.ID)
	s.moves++
	// Emit BEFORE the physical copy. A blocking move's checkpoint event
	// must reach observers while the data layer still holds the pre-move
	// image: a durability hook that snapshots the data on checkpoints would
	// otherwise capture this move's bytes — the first write AFTER the
	// checkpoint — inside it, clobbering space the previous checkpoint
	// still references.
	emit(MoveResult{
		ID: mv.ID, Size: size, From: oldStart, To: target.Start,
		Footprint: s.MaxEnd(), PreFootprint: pre, Checkpointed: checkpointed,
	})
	if s.data != nil {
		s.data.Copy(target.Start, oldStart, size)
	}
	return nil
}
