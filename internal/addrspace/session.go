package addrspace

import (
	"fmt"
	"math"
	"slices"
)

// This file implements the resumable flush executor: the deamortized hot
// path.
//
// A Section 3.3 flush plan executes as volume-bounded chunks spread over
// many subsequent requests. Running each chunk through ApplyMoves pays the
// suffix flatten-and-merge rebuild per chunk — O(n) bookkeeping for an
// O(chunk) quota, which turns one flush into O(n²/chunk) index work — and
// running it through per-move Move re-validates every relocation against
// the live layout. A MoveSession splits the difference: BeginMoves
// validates the entire plan once (simulation, ref discipline, strict-rule
// self-overlaps, and the final layout's disjointness — the same checks
// ApplyMoves performs), then Advance applies each quota chunk with an
// incremental suffix rebuild: every applied relocation splices its own
// index entry (one O(log n) probe plus an O(B) block edit, B the constant
// block size), so a chunk of volume q costs O(q/w·(log n + B)) for moves
// of size w — independent of the structure size — while the index, the
// id table, counters, cell stamps, and the freed set stay exactly as
// per-move execution would leave them after every chunk. A first Advance
// whose budget covers the whole remaining plan takes the bulk
// flatten-merge path instead, which is strictly cheaper for atomic
// flushes.
//
// Observable equivalence with the per-move reference path (and therefore
// with ApplyMoves) is asserted by the cross-check tests here and the
// differential tests in core.

// MoveSession is an in-progress resumable move plan, created by
// BeginMoves. At most one session can be active per Space; Advance
// consumes the plan in volume-bounded chunks and Commit releases the
// session once the plan is fully consumed.
//
// Between Advance calls the Space is fully consistent and usable: queries
// (MaxEnd, Extent, ForEach, Verify) see every applied relocation, and
// mutations outside the plan's address range — the update log placing and
// removing objects past the overflow segment — are legal. Mutating plan
// objects themselves mid-session is not.
type MoveSession struct {
	s      *Space
	plan   []Relocation
	b      *batchState
	next   int   // next plan entry to execute
	total  int64 // volume the whole plan applies
	cut    pos   // bulk-commit cut position (valid while gen matches)
	gen    uint64
	epoch  int32 // chunk counter for the per-ref chunk scratch
	done   bool
	closed bool
}

// BeginMoves validates plan in its entirety — the same checks ApplyMoves
// performs on its consumed prefix, against the current layout and bound
// to the index suffix from address from — and returns a session that
// executes it incrementally. The plan must be non-empty, and only one
// session may be active at a time. No Space state changes until Advance.
func (s *Space) BeginMoves(plan []Relocation, from int64, finalOrder []int32) (*MoveSession, error) {
	if len(plan) == 0 {
		return nil, fmt.Errorf("addrspace: BeginMoves with an empty plan")
	}
	if s.session != nil {
		return nil, fmt.Errorf("addrspace: a move session is already active")
	}
	b, _, cutPos, vol, err := s.simulatePlan(plan, from, finalOrder, math.MaxInt64)
	if err != nil {
		return nil, err
	}
	ms := &MoveSession{s: s, plan: plan, b: b, total: vol, cut: cutPos, gen: s.byStart.gen}
	s.session = ms
	return ms, nil
}

// Done reports whether every plan entry has been consumed.
func (ms *MoveSession) Done() bool { return ms.done }

// Remaining returns the number of unconsumed plan entries.
func (ms *MoveSession) Remaining() int { return len(ms.plan) - ms.next }

// Advance executes the next chunk of the plan: entries keep being
// consumed while the volume applied in this call is below budget,
// overshooting by at most one move, exactly mirroring a quota-driven loop
// over Move (no-op entries consume no budget). It returns how many plan
// entries were consumed and the volume they moved.
//
// emit, if non-nil, observes every applied relocation with exact per-move
// footprints, checkpoint blocking included, just as ApplyMoves reports
// them; unlike ApplyMoves, index-derived queries are valid immediately
// after each Advance returns (the index is updated as the chunk applies).
//
// The final layout was validated by BeginMoves; intermediate layouts are
// the caller's responsibility (flush schedules guarantee them by
// construction), but violations do not go unnoticed: with an emitter,
// each relocation is checked against its index neighbors and a violation
// fails the call with the offending move unapplied and the index still
// consistent; without one, the chunk-end reconciliation detects the
// overlap after per-move state (counters, freed set, id table) has
// already advanced and panics rather than leave a silently corrupt index
// behind — the same philosophy as the exact-search desync panic in find.
func (ms *MoveSession) Advance(budget int64, emit func(MoveResult)) (consumed int, volume int64, err error) {
	if ms.closed || ms.done || budget <= 0 {
		return 0, 0, nil
	}
	s := ms.s
	b := ms.b
	// A first chunk that provably consumes the whole plan commits through
	// the bulk flatten-merge path prepared at BeginMoves — cheaper than
	// per-entry splices for atomic flushes. The index generation guard
	// proves the pre-merged suffix is still current.
	if ms.next == 0 && budget >= ms.total && s.byStart.gen == ms.gen {
		volume = s.executeBulk(ms.plan, b, len(ms.plan), ms.cut, emit)
		ms.next = len(ms.plan)
		ms.done = true
		return len(ms.plan), volume, nil
	}
	if ms.next == 0 {
		// Entering incremental execution: rewind the simulation cursors
		// (simulatePlan left them at the plan's final positions).
		for _, ref := range b.touched {
			b.curStart[ref] = b.suffix[ref].ext.Start
		}
	}
	if emit == nil {
		// No per-move observer: the chunk's index reconciliation batches
		// into sorted range edits at the end.
		return ms.advanceBatched(budget)
	}
	t0 := s.moveClock()
	for ms.next < len(ms.plan) && volume < budget {
		mv := ms.plan[ms.next]
		oldStart := b.oldSteps[ms.next]
		if mv.To == oldStart {
			ms.next++
			consumed++
			continue
		}
		size := b.suffix[mv.Ref].ext.Size
		if err = s.applyOne(mv, oldStart, size, emit); err != nil {
			break
		}
		b.curStart[mv.Ref] = mv.To
		ms.next++
		consumed++
		volume += size
	}
	s.addMoveTime(t0)
	if err != nil {
		return consumed, volume, err
	}
	if ms.next == len(ms.plan) {
		ms.done = true
	}
	return consumed, volume, nil
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
func (ms *MoveSession) advanceBatched(budget int64) (consumed int, volume int64, err error) {
	s := ms.s
	b := ms.b
	ms.epoch++
	refs := b.chunkRefs[:0]
	t0 := s.moveClock()
	for ms.next < len(ms.plan) && volume < budget {
		mv := ms.plan[ms.next]
		oldStart := b.oldSteps[ms.next]
		if mv.To == oldStart {
			ms.next++
			consumed++
			continue
		}
		size := b.suffix[mv.Ref].ext.Size
		old := Extent{Start: oldStart, Size: size}
		target := Extent{Start: mv.To, Size: size}
		if s.opts.CheckpointRule && s.freed.intersects(target) {
			s.blockedWrites++
			s.Checkpoint()
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
		if s.opts.CheckpointRule {
			var pieces [2]Extent
			for _, piece := range pieces[:subtract(old, target, &pieces)] {
				s.freed.add(piece)
			}
		}
		s.moves++
		b.curStart[mv.Ref] = mv.To
		ms.next++
		consumed++
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
	if ms.next == len(ms.plan) {
		ms.done = true
	}
	return consumed, volume, nil
}

// applyOne executes a single validated relocation with an incremental
// index splice that keeps the entry's tag and slot, evolving the Space
// exactly as Move would: transparent checkpoint blocking, freed-set
// growth, cell stamps, counters, and an eagerly synced id table, written
// by the slot the live index entry records.
func (s *Space) applyOne(mv Relocation, oldStart, size int64, emit func(MoveResult)) error {
	old := Extent{Start: oldStart, Size: size}
	target := Extent{Start: mv.To, Size: size}
	var pre int64
	if emit != nil {
		pre = s.MaxEnd()
	}
	checkpointed := false
	if s.opts.CheckpointRule && s.freed.intersects(target) {
		s.blockedWrites++
		s.Checkpoint()
		checkpointed = true
	}
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
	entry.ext = target
	s.byStart.insert(entry)
	s.ids.setExt(entry.slot, mv.ID, target)
	s.stampCells(target, mv.ID)
	if s.opts.CheckpointRule {
		var pieces [2]Extent
		for _, piece := range pieces[:subtract(old, target, &pieces)] {
			s.freed.add(piece)
		}
	}
	s.moves++
	if emit != nil {
		// Emit BEFORE the physical copy. A blocking move's checkpoint
		// event must reach observers while the data layer still holds the
		// pre-move image: a durability hook that snapshots the data on
		// checkpoints would otherwise capture this move's bytes — the
		// first write AFTER the checkpoint — inside it, clobbering space
		// the previous checkpoint still references.
		emit(MoveResult{
			ID: mv.ID, Size: size, From: oldStart, To: target.Start,
			Footprint: s.MaxEnd(), PreFootprint: pre, Checkpointed: checkpointed,
		})
	}
	if s.data != nil {
		s.data.Copy(target.Start, oldStart, size)
	}
	return nil
}

// Commit releases a fully consumed session, making the Space (and the
// shared plan scratch) available for the next plan. It fails if entries
// remain or the session was already committed.
func (ms *MoveSession) Commit() error {
	if ms.closed {
		return fmt.Errorf("addrspace: session already committed")
	}
	if !ms.done {
		return fmt.Errorf("addrspace: commit of a session with %d entries remaining", ms.Remaining())
	}
	ms.closed = true
	ms.s.session = nil
	return nil
}
