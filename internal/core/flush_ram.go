package core

import (
	"realloc/internal/addrspace"
	"realloc/internal/telemetry"
	"realloc/internal/trace"
)

// flushRAM executes a Section 2 buffer flush atomically. trigger is the
// not-yet-placed object whose insert forced the flush (nil when a delete's
// dummy record overflowed the buffers). Moves have memmove semantics; the
// schedule still performs at most two moves per object:
//
//  1. evacuate buffered objects to the overflow segment past the array,
//  2. compact all flushed payload objects leftward (removing holes),
//  3. expand them rightward to their final, gap-accommodating positions,
//  4. pull the buffered objects down into their payload tails.
//
// The whole schedule is built as one move plan and applied in a single
// batch (see addrspace.ApplyMoves); the observable event stream is
// identical to executing it move by move.
func (r *Reallocator) flushRAM(trigClass int, trigger *object) error {
	var t0 int64
	if r.tel != nil {
		t0 = telemetry.Now()
	}
	r.markCopy()
	r.flushes++
	b := r.boundaryClass(trigClass)
	r.rec.Record(trace.Event{Kind: trace.KFlushStart, From: int64(b), Volume: r.vol})

	lp := r.computeLayout(b)
	payload, buffered := r.flushedObjects(b, lp.suffixStart)
	lp.assignSlots(payload, buffered, trigger)

	// Step 1 targets: the overflow segment, which starts after both the
	// current suffix (which may be longer when deletes shrank the volume)
	// and the new one.
	overflow := lp.newEnd
	if cur := r.structEndCurrent(); cur > overflow {
		overflow = cur
	}
	// Plan refs are the objects' ranks in the walked suffix.
	plan := r.planBuf[:0]
	off := overflow
	for _, o := range buffered {
		plan = append(plan, addrspace.Relocation{ID: o.id, To: off, Ref: o.ref})
		off += o.size
	}
	// Step 2 targets: packed with no gaps from the suffix start. Class
	// order is preserved because payload objects arrive address-sorted.
	pos := lp.suffixStart
	for _, o := range payload {
		plan = append(plan, addrspace.Relocation{ID: o.id, To: pos, Ref: o.ref})
		pos += o.size
	}
	// Step 3: expand rightward to final positions, largest class first and
	// right-to-left within it, so no move lands on a not-yet-moved object.
	for i := len(payload) - 1; i >= 0; i-- {
		o := payload[i]
		plan = append(plan, addrspace.Relocation{ID: o.id, To: o.slot, Ref: o.ref})
	}
	// Step 4: buffered objects down into their payload tails.
	for _, o := range buffered {
		plan = append(plan, addrspace.Relocation{ID: o.id, To: o.slot, Ref: o.ref})
	}
	r.planBuf = plan

	finalOrder := r.buildFinalOrder(&lp, payload, buffered)
	_, flushedVol, err := r.applyPlan(plan, lp.suffixStart, finalOrder, quotaAll)
	if err != nil {
		return err
	}
	for _, o := range buffered {
		o.place = inPayload
	}

	r.install(lp)

	// Finally place the triggering insert at the reserved end of its class
	// payload; this is its initial allocation, not a reallocation.
	if trigger != nil {
		if err := r.placeCkpt(trigger, addrspace.Extent{Start: trigger.slot, Size: trigger.size}); err != nil {
			return err
		}
		trigger.place = inPayload
	}
	r.rec.Record(trace.Event{Kind: trace.KFlushEnd, Size: flushedVol})
	if r.tel != nil {
		// An atomic flush is a single chunk with no stall: the whole
		// schedule ran inside the triggering request.
		el := telemetry.Now() - t0
		r.tel.FlushDuration.Record(el)
		r.tel.FlushMoved.Record(flushedVol)
		r.tel.FlushChunk.Record(flushedVol)
		r.recordCopy()
		r.syncCheckpoints()
		r.rec.Record(trace.Event{
			Kind: trace.KFlushSpan, ID: 1, Size: flushedVol, To: el,
			Footprint: r.space.MaxEnd(), Volume: r.vol,
		})
	}
	return nil
}
