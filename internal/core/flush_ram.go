package core

import (
	"math"

	"realloc/internal/addrspace"
	"realloc/internal/telemetry"
	"realloc/internal/trace"
)

// flushRAM executes a Section 2 buffer flush atomically. trigger is the
// not-yet-placed object whose insert forced the flush (nil when a delete's
// dummy record overflowed the buffers). Moves have memmove semantics, so
// the paper's middle steps — compact the payload objects leftward, then
// expand them rightward — collapse into one sweep, and each payload
// survivor moves at most once:
//
//  1. evacuate buffered objects to the overflow segment past the array,
//  2. sweep the flushed payload objects straight to their final,
//     gap-accommodating positions (see sweepPlan),
//  3. pull the buffered objects down into their payload tails.
//
// Every slot, and so the final layout, is the paper's. The whole schedule
// is built as one move plan over the dense planning arrays and applied as
// one whole-plan chunk of a move session (see addrspace.BeginMoves); the
// observable event stream is identical to executing it move by move.
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
	payload, buffered := r.flushedObjects(&lp, lp.suffixStart)
	order, trigSlot := lp.assignSlots(payload, buffered, r.orderBuf, trigger)
	r.orderBuf = order

	// Step 1 targets: the overflow segment, which starts after both the
	// current suffix (which may be longer when deletes shrank the volume)
	// and the new one.
	overflow := lp.newEnd
	if cur := r.structEndCurrent(); cur > overflow {
		overflow = cur
	}
	plan := r.planBuf[:0]
	off := overflow
	for i := range buffered {
		plan = append(plan, buffered[i].relocation(off))
		off += buffered[i].size
	}
	// Step 2: every payload object straight to its slot.
	plan = sweepPlan(plan, payload)
	// Step 3: buffered objects down into their payload tails.
	for i := range buffered {
		plan = append(plan, buffered[i].relocation(buffered[i].slot))
	}
	r.planBuf = plan

	var flushedVol int64
	var err error
	switch {
	case r.serialFlush:
		_, flushedVol, err = r.applyPlanSerial(plan, quotaAll)
	case len(plan) > 0:
		var sess *addrspace.MoveSession
		if sess, err = r.space.BeginMoves(plan, lp.suffixStart, order); err == nil {
			_, flushedVol, err = r.advanceSession(sess, quotaAll)
		}
	}
	if err != nil {
		return err
	}
	for i := range buffered {
		r.recs.setPlace(buffered[i].tag, inPayload)
	}

	r.install(lp)

	// Finally place the triggering insert at the reserved end of its class
	// payload; this is its initial allocation, not a reallocation.
	if trigger != nil {
		if err := r.placeCkpt(trigger, addrspace.Extent{Start: trigSlot, Size: trigger.size}); err != nil {
			return err
		}
		r.recs.setPlace(trigger.tag, inPayload)
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

// sweepPlan appends to plan the moves that carry the address-ordered
// payload objects straight to their slots, one move per object that
// changes place: left-movers in ascending order, each maximal run of
// right-movers in descending order once the run ends. Because slots keep
// address order, no move lands on an object that has not moved yet (the
// package documentation, under "Deviations from the paper", gives the
// argument). A move session validates only the final layout, so a
// mis-ordered plan would overwrite payload bytes: the sweep panics on a
// slot below its predecessor's end, a bookkeeping desync.
func sweepPlan(plan []addrspace.Relocation, payload []flushObj) []addrspace.Relocation {
	run := 0 // first object of the pending run of right-movers
	prevEnd := int64(math.MinInt64)
	for i := range payload {
		o := &payload[i]
		if o.slot < prevEnd {
			panic("core: flush slots out of address order")
		}
		prevEnd = o.slot + o.size
		if o.slot > o.start {
			continue // joins the pending run
		}
		plan = appendRun(plan, payload[run:i])
		run = i + 1
		if o.slot < o.start {
			plan = append(plan, o.relocation(o.slot))
		}
	}
	return appendRun(plan, payload[run:])
}

// appendRun appends the moves of a run of right-movers, last first.
func appendRun(plan []addrspace.Relocation, run []flushObj) []addrspace.Relocation {
	for i := len(run) - 1; i >= 0; i-- {
		plan = append(plan, run[i].relocation(run[i].slot))
	}
	return plan
}
