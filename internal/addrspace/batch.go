package addrspace

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"realloc/internal/arena"
)

// This file implements move-plan validation and the whole-plan path of a
// MoveSession (see session.go): the flush hot path.
//
// A buffer flush relocates nearly every object of the flushed suffix, and
// executing it through Move would pay a sorted-slice rotation per object —
// O(m·n) bookkeeping for an O(m)-volume flush. BeginMoves instead
// validates the whole plan once, and an Advance that consumes it in one
// chunk rebuilds the index suffix the plan was built against in a single
// merge pass: for a suffix of n entries and a plan of m steps, O(n + m),
// because the caller supplies the final order, plus a lazy max-heap of
// footprints only when an observer wants them per move. It produces
// byte-for-byte the same observable sequence (per-move footprints,
// checkpoints, blocked-write and move counters, cell stamps) as the
// per-move path. The per-move path remains the reference semantics; the
// differential tests in core and the cross-check tests here drive both
// and assert equality.
//
// A plan is bound to the index suffix from an address the caller names
// (from): Relocation.Ref is the object's rank in that suffix, so the
// executor reads each object's current entry by position — no id lookups
// — and keeps all per-object working state in dense slices indexed by
// rank. Rank order is address order, which lets the merge skip net-moved
// entries and the footprint cursor step over moved ones without sorting.
// The scratch is reused across plans: steady-state flushes allocate
// nothing but the copy goroutine of an overlapped chunk.
//
// The commit (id table and index) touches none of the memory the copies
// touch, so a large whole-plan chunk with nothing to observe it — no
// emitter, no checkpoint rule, a real backend, at least overlapMinVolume
// of moves — runs its copies on a second goroutine while the caller
// commits, and joins them before it returns (executeOverlapped).

// Relocation is one step of a move plan: relocate ID so that it starts at
// To. Ref names the object by its rank among the live objects starting at
// or after the plan's from address, in address order (the order
// SuffixTags yields them in); binding checks that the entry at that rank is
// ID. A plan may relocate the same object several times (flush schedules
// park objects in the overflow segment before placing them); every step
// of the same object carries the same Ref.
type Relocation struct {
	ID  ID
	To  int64
	Ref int32
}

// MoveResult describes one applied relocation, in plan order. Footprint is
// MaxEnd after the relocation and PreFootprint before it; Checkpointed
// reports that the relocation blocked on freed-since-checkpoint space and
// a checkpoint was taken (and counted) immediately before it.
type MoveResult struct {
	ID           ID
	Size         int64
	From, To     int64
	Footprint    int64
	PreFootprint int64
	Checkpointed bool
}

// batchState holds the dense scratch move sessions reuse across plans.
// The per-rank slices are indexed by Relocation.Ref and cleared lazily via
// the touched list.
type batchState struct {
	suffix   []placement // the index suffix the plan is bound to, by rank
	curStart []int64     // per rank: simulated, then applied, start
	mark     []uint8     // per rank: markBound | markListed | markMoved
	touched  []int32     // bound ranks, in first-use order
	oldSteps []int64     // pre-step start per consumed plan entry
	finals   []placement
	newEnds  []endEntry // max-heap: current ends of moved objects (lazy)
	merged   []placement

	// Session chunk scratch (see MoveSession.Advance): per-rank chunk
	// epochs and entry positions at chunk start, plus the deletion and
	// insertion lists of the chunk-end index reconciliation.
	chunkEpoch []int32
	chunkFrom  []int64
	chunkRefs  []int32
	chunkDels  []int64
	chunkIns   []placement

	// Overlapped whole-plan chunk (see executeOverlapped): the join on
	// the copy goroutine, and what it hands back through the join.
	copies    sync.WaitGroup
	copyNanos int64
	copyPanic any
}

// Per-rank marks.
const (
	markBound  uint8 = 1 << iota // a consumed plan entry names this rank
	markListed                   // the final order has listed this rank
	markMoved                    // executeBulk has applied a move of it
)

// endEntry is one newEnds element: a (possibly stale) object end.
type endEntry struct {
	ref int32
	end int64
}

// batchState returns the reusable scratch, cleared and bound to the index
// suffix from cut.
func (s *Space) batchState(cut pos) *batchState {
	if s.batch == nil {
		s.batch = &batchState{}
	}
	b := s.batch
	for _, ref := range b.touched {
		b.mark[ref] = 0
		b.chunkEpoch[ref] = 0
	}
	b.touched = b.touched[:0]
	b.suffix = s.byStart.flattenFrom(cut, b.suffix[:0])
	if n := len(b.suffix); len(b.mark) < n {
		b.curStart = slices.Grow(b.curStart[:0], n)[:n]
		b.mark = slices.Grow(b.mark[:0], n)[:n]
		b.chunkEpoch = slices.Grow(b.chunkEpoch[:0], n)[:n]
		b.chunkFrom = slices.Grow(b.chunkFrom[:0], n)[:n]
	}
	b.oldSteps = b.oldSteps[:0]
	b.finals = b.finals[:0]
	b.newEnds = b.newEnds[:0]
	return b
}

// simulatePlan is BeginMoves' validation pass: it binds plan to the index
// suffix from address from, simulates the whole plan, builds the net
// final layout (b.finals) in the order finalOrder lists it and the merged
// index suffix (b.merged), and validates the whole result — refs, bad
// targets, strict-rule self-overlaps, the final order, and any overlap in
// the final layout fail the call with the Space untouched. It returns the
// populated scratch, the index cut position, and the volume the plan
// applies.
func (s *Space) simulatePlan(plan []Relocation, from int64, finalOrder []int32) (b *batchState, cutPos pos, volume int64, err error) {
	cutPos = s.byStart.lowerBound(from)
	b = s.batchState(cutPos)
	n := int32(len(b.suffix))
	base := max(from, 0)

	// Pass 1: bind, simulate, and validate every step.
	for _, mv := range plan {
		if mv.Ref < 0 || mv.Ref >= n {
			return nil, pos{}, 0, fmt.Errorf("addrspace: relocation ref %d out of range [0,%d)", mv.Ref, n)
		}
		p := &b.suffix[mv.Ref]
		if p.id != mv.ID {
			return nil, pos{}, 0, fmt.Errorf("%w: %d (ref %d names object %d)", ErrUnknownObject, mv.ID, mv.Ref, p.id)
		}
		if b.mark[mv.Ref]&markBound == 0 {
			b.mark[mv.Ref] |= markBound
			b.curStart[mv.Ref] = p.ext.Start
			b.touched = append(b.touched, mv.Ref)
		}
		old := Extent{Start: b.curStart[mv.Ref], Size: p.ext.Size}
		b.oldSteps = append(b.oldSteps, old.Start)
		if mv.To == old.Start {
			continue
		}
		target := Extent{Start: mv.To, Size: old.Size}
		if target.Start < base {
			return nil, pos{}, 0, fmt.Errorf("%w: %v below the plan's base %d", ErrBadExtent, target, base)
		}
		if s.opts.StrictNonOverlap && target.Overlaps(old) {
			return nil, pos{}, 0, fmt.Errorf("%w: %v vs %v", ErrSelfOverlap, target, old)
		}
		b.curStart[mv.Ref] = target.Start
		volume += target.Size
	}

	// The net result of the plan, in final order: objects whose final
	// start differs from their current one. Objects a plan moves and later
	// moves back keep their index entry.
	prevStart := int64(-1)
	matched := 0
	for _, ref := range finalOrder {
		if ref < 0 || ref >= n || b.mark[ref]&markBound == 0 {
			continue // not part of the plan
		}
		if b.mark[ref]&markListed != 0 {
			return nil, pos{}, 0, fmt.Errorf("addrspace: ref %d listed twice in final order", ref)
		}
		b.mark[ref] |= markListed
		matched++
		f := b.suffix[ref]
		if b.curStart[ref] == f.ext.Start {
			continue
		}
		if b.curStart[ref] < prevStart {
			return nil, pos{}, 0, fmt.Errorf("addrspace: final order not sorted at ref %d", ref)
		}
		prevStart = b.curStart[ref]
		f.ext.Start = b.curStart[ref]
		b.finals = append(b.finals, f)
	}
	if matched != len(b.touched) {
		return nil, pos{}, 0, fmt.Errorf("addrspace: final order covers %d of %d plan objects", matched, len(b.touched))
	}

	// Validate the resulting layout and build the merged index suffix in
	// one pass. Every index entry left of the cut survives untouched (plan
	// objects are suffix ranks and targets lie at or beyond from); suffix
	// entries either keep their place or, when net-moved, give way to
	// their final placement from the sorted finals.
	var prev placement
	havePrev := false
	if pp, ok := s.byStart.prev(cutPos); ok {
		prev, havePrev = s.byStart.at(pp), true
	}
	b.merged = b.merged[:0]
	i, j := 0, 0
	for i < len(b.suffix) || j < len(b.finals) {
		var next placement
		switch {
		case i < len(b.suffix) && b.mark[i]&markBound != 0 && b.curStart[i] != b.suffix[i].ext.Start:
			i++ // net-moved: its final placement comes from finals
			continue
		case i >= len(b.suffix):
			next = b.finals[j]
			j++
		case j >= len(b.finals) || b.suffix[i].ext.Start <= b.finals[j].ext.Start:
			next = b.suffix[i]
			i++
		default:
			next = b.finals[j]
			j++
		}
		if havePrev && prev.ext.End() > next.ext.Start {
			return nil, pos{}, 0, fmt.Errorf("%w: plan lands %d at %v over %d at %v",
				ErrOverlap, next.id, next.ext, prev.id, prev.ext)
		}
		b.merged = append(b.merged, next)
		prev, havePrev = next, true
	}
	return b, cutPos, volume, nil
}

// byStart orders placements by start address.
func byStart(a, c placement) int {
	switch {
	case a.ext.Start < c.ext.Start:
		return -1
	case a.ext.Start > c.ext.Start:
		return 1
	default:
		return 0
	}
}

// overlapMinVolume is the plan volume from which an unobserved
// whole-plan chunk on a real backend without the checkpoint rule copies
// on a second goroutine while its caller commits (executeOverlapped).
// Smaller plans run serially: starting and joining the goroutine costs
// microseconds, and a small commit hides less than that. On a 2-vCPU VM
// (heap arena, ~128 MiB live, objects of 64 B to 64 KiB), overlapping
// lost 12% at 512 KiB, was within noise at 1–1.5 MiB and won 11% at
// 2 MiB.
const overlapMinVolume = 2 << 20

// executeBulk is a session's whole-plan chunk: it applies the plan using
// the scratch simulatePlan populated, then commits the id table and
// splices the pre-merged suffix into the index. Nothing in it can fail, so
// counters, cell stamps, the id table, and the freed set evolve exactly
// as the per-move path would evolve them. The footprint after each
// relocation is the larger of two sources: the rightmost suffix entry
// whose object has not moved yet (index ends are sorted, so a
// right-to-left cursor suffices, stepped over moved ranks), and the max
// valid entry of a heap fed by every applied move. The id table is
// synced lazily: eagerly only when a checkpoint exposes positions to
// observers, in bulk otherwise. Either way it is written by the slot each
// suffix entry records, without hashing: the suffix was flattened under
// an index generation no table rebuild has moved on from. On a real
// backend the move loop is timed as one chunk (MoveNanos); the commit is
// not.
//
// A chunk with no emitter and no checkpoint rule, on a real backend,
// whose plan moves at least overlapMinVolume, takes executeOverlapped
// instead: the same end state, with the copies on a second goroutine
// while this one commits.
func (ms *MoveSession) executeBulk(emit func(MoveResult)) (volume int64) {
	s, b, plan := ms.s, ms.b, ms.plan
	if emit == nil && !s.opts.CheckpointRule && s.HasData() && ms.total >= overlapMinVolume {
		return ms.executeOverlapped()
	}
	// The last untouched entry has the largest end among them; only it can
	// reach into the merged zone, and it is the footprint floor once every
	// suffix entry has moved.
	belowEnd := int64(0)
	if pp, ok := s.byStart.prev(ms.cut); ok {
		belowEnd = s.byStart.at(pp).ext.End()
	}
	top := len(b.suffix) - 1
	foot := s.MaxEnd()
	synced := 0
	midSync := false
	t0 := s.moveClock()
	for k, mv := range plan {
		oldStart := b.oldSteps[k]
		if mv.To == oldStart {
			continue
		}
		size := b.suffix[mv.Ref].ext.Size
		target := Extent{Start: mv.To, Size: size}
		checkpointed := false
		if s.opts.CheckpointRule && s.vacate(Extent{Start: oldStart, Size: size}, target) {
			// Observers snapshot object positions on checkpoint events:
			// bring the table up to date with every move applied so far.
			b.syncObjects(s, plan, synced, k)
			synced, midSync = k, true
			checkpointed = true
		}
		s.stampCells(target, mv.ID)
		s.moves++
		volume += size
		b.curStart[mv.Ref] = target.Start

		if emit != nil {
			// Trajectory bookkeeping only matters to an observer; without
			// one counters, cells, the freed set, and the final layout are
			// unaffected. The emit happens BEFORE the physical copy below:
			// a blocking move's checkpoint event must reach observers while
			// the data layer still holds the pre-move image, or a
			// durability hook snapshotting on checkpoints would capture
			// this move's bytes — the first write AFTER the checkpoint —
			// clobbering space the previous checkpoint still references.
			pre := foot
			if b.mark[mv.Ref]&markMoved == 0 {
				// First applied move of this object: its index entry goes
				// stale, so its pre-batch end leaves the cursor's world.
				b.mark[mv.Ref] |= markMoved
				for top >= 0 && b.mark[top]&markMoved != 0 {
					top--
				}
			}
			pushEnd(&b.newEnds, endEntry{ref: mv.Ref, end: target.End()})
			foot = b.topEnd()
			if top >= 0 {
				if e := b.suffix[top].ext.End(); e > foot {
					foot = e
				}
			} else if belowEnd > foot {
				foot = belowEnd
			}
			emit(MoveResult{
				ID: mv.ID, Size: size, From: oldStart, To: target.Start,
				Footprint: foot, PreFootprint: pre, Checkpointed: checkpointed,
			})
		}
		if s.data != nil {
			// Plan order is overlap-safe: each step's target is disjoint
			// from every other live object at that instant (flush
			// schedules guarantee intermediate layouts), and a step that
			// overlaps its own source is a single memmove.
			s.data.Copy(target.Start, oldStart, size)
		}
	}
	s.addMoveTime(t0)

	// Commit. After a mid-batch sync every touched object must be
	// re-synced (an intermediate position may already be in the table);
	// otherwise only the net-moved ones need their final extents written.
	if midSync {
		for _, ref := range b.touched {
			p := &b.suffix[ref]
			s.ids.setExt(p.slot, p.id, Extent{Start: b.curStart[ref], Size: p.ext.Size})
		}
	} else {
		for i := range b.finals {
			f := &b.finals[i]
			s.ids.setExt(f.slot, f.id, f.ext)
		}
	}
	s.byStart.replaceSuffix(ms.cut, b.merged)
	return volume
}

// executeOverlapped is executeBulk for a large plan nothing observes on
// a real RAM backend. A second goroutine runs the plan's copies in plan
// order (copyPlan) while the caller counts the moves, stamps cells, and
// commits the id table and the index. The two touch disjoint memory: the
// copies write only the backend and read only plan scratch the commit
// does not write, and the commit never touches the backend. So the
// backend has one user at every instant, and the Space ends exactly as
// the serial loop leaves it. The caller joins the copies on every path
// before it returns, a panic in its own commit included, and re-raises a
// panic a copy raised (arena.ErrClosed, say), so callers see the same
// panic the serial loop would raise. MoveNanos is charged with the copy
// goroutine's own clock pair: still the copies' time. curStart is left
// at the plan's start positions; nothing reads it once the session ends.
func (ms *MoveSession) executeOverlapped() (volume int64) {
	s, b, plan := ms.s, ms.b, ms.plan
	b.copies.Add(1)
	go b.copyPlan(s.data, plan)
	defer b.joinCopies(s)
	for k, mv := range plan {
		if mv.To == b.oldSteps[k] {
			continue
		}
		size := b.suffix[mv.Ref].ext.Size
		s.stampCells(Extent{Start: mv.To, Size: size}, mv.ID)
		s.moves++
		volume += size
	}
	for i := range b.finals {
		f := &b.finals[i]
		s.ids.setExt(f.slot, f.id, f.ext)
	}
	s.byStart.replaceSuffix(ms.cut, b.merged)
	return volume
}

// copyPlan is the copy goroutine of executeOverlapped: every copy of the
// plan, in plan order, under one clock pair. It recovers a panic instead
// of crashing the process, for joinCopies to re-raise on the caller.
func (b *batchState) copyPlan(data arena.Backend, plan []Relocation) {
	defer b.copies.Done()
	defer func() { b.copyPanic = recover() }()
	t0 := time.Now()
	for k, mv := range plan {
		if oldStart := b.oldSteps[k]; mv.To != oldStart {
			data.Copy(mv.To, oldStart, b.suffix[mv.Ref].ext.Size)
		}
	}
	b.copyNanos = int64(time.Since(t0))
}

// joinCopies waits for copyPlan, charges its clock to MoveNanos, and
// re-raises the panic it recovered, if any.
func (b *batchState) joinCopies(s *Space) {
	b.copies.Wait()
	s.moveNanos += b.copyNanos
	b.copyNanos = 0
	if p := b.copyPanic; p != nil {
		b.copyPanic = nil
		panic(p)
	}
}

// syncObjects writes the positions of plan steps [from, upto) into the
// id table, in order, so superseded intermediate positions resolve to the
// latest applied one.
func (b *batchState) syncObjects(s *Space, plan []Relocation, from, upto int) {
	for i := from; i < upto; i++ {
		mv := plan[i]
		if mv.To == b.oldSteps[i] {
			continue
		}
		p := &b.suffix[mv.Ref]
		s.ids.setExt(p.slot, mv.ID, Extent{Start: mv.To, Size: p.ext.Size})
	}
}

// topEnd returns the largest current end among moved objects, discarding
// entries made stale by later relocations of the same object (a stale
// entry can never tie its object's live end: same object and size but a
// different start).
func (b *batchState) topEnd() int64 {
	for len(b.newEnds) > 0 {
		t := b.newEnds[0]
		if b.curStart[t.ref]+b.suffix[t.ref].ext.Size == t.end {
			return t.end
		}
		n := len(b.newEnds) - 1
		b.newEnds[0] = b.newEnds[n]
		b.newEnds = b.newEnds[:n]
		siftDownEnd(b.newEnds)
	}
	return 0
}

// pushEnd appends e and restores the max-heap property.
func pushEnd(h *[]endEntry, e endEntry) {
	hh := append(*h, e)
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if hh[parent].end >= hh[i].end {
			break
		}
		hh[parent], hh[i] = hh[i], hh[parent]
		i = parent
	}
	*h = hh
}

// siftDownEnd restores the max-heap property from the root.
func siftDownEnd(h []endEntry) {
	n := len(h)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h[l].end > h[big].end {
			big = l
		}
		if r < n && h[r].end > h[big].end {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}
