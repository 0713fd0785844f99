package core

import (
	"realloc/internal/addrspace"
	"realloc/internal/telemetry"
	"realloc/internal/trace"
)

// flushPlan is the fully computed move schedule of a Section 3 flush. The
// atomic Checkpointed variant executes it in one request; the Deamortized
// variant executes (4/ε')·w volume of it per subsequent request, each
// request's share consumed as one volume-bounded chunk. The schedule is
// handed to a substrate move session (addrspace.BeginMoves) that
// validated it in full at startFlush and advances it chunk by chunk; sess
// is nil for empty schedules and on the per-move reference path the
// differential tests select (serialFlush).
type flushPlan struct {
	moves       []addrspace.Relocation
	sess        *addrspace.MoveSession
	next        int
	movedVolume int64
	// Telemetry accounting (maintained only when Config.Telemetry is
	// set): activeNanos sums the wall-clock of plan construction plus
	// every executed chunk and log-drain slice — the flush's actual
	// execution time, excluding the caller think-time between the ops
	// that carry a deamortized flush; stallNanos is the part performed
	// by ops that did not trigger the flush; chunks counts quota slices.
	activeNanos int64
	stallNanos  int64
	chunks      int64
}

// startFlush builds and installs a Section 3.2 flush plan. For an
// insert-triggered flush the trigger object has already been placed at L
// (the endpoint of the last object) and appended, over capacity, to the
// last buffer; wtrig is its size (0 for delete-triggered flushes).
//
// The schedule is:
//
//  1. evacuate every buffered object (trigger included) to the overflow
//     segment starting at W = max{L,L'} + B + ∆ + wtrig,
//  2. pack all flushed payload objects rightward, ending at W,
//  3. unpack them leftward to their final positions,
//  4. pull the buffered objects down from the overflow segment into their
//     payload tails.
//
// Every move's target is provably disjoint from its source (see package
// documentation for why the +wtrig term is needed), and any move landing
// on space freed since the last checkpoint blocks on — triggers and
// counts — a checkpoint.
func (r *Reallocator) startFlush(trigClass int, wtrig int64) error {
	var t0 int64
	if r.tel != nil {
		t0 = telemetry.Now()
	}
	r.markCopy()
	r.flushes++
	b := r.boundaryClass(trigClass)
	r.rec.Record(trace.Event{Kind: trace.KFlushStart, From: int64(b), Volume: r.vol})

	L := r.space.MaxEnd() - wtrig
	lp := r.computeLayout(b)
	// Every flushed object sits at or beyond the suffix start — except a
	// flush-triggering insert, which placeTrigger put at L, the pre-flush
	// endpoint of the last object; deletes can have emptied the suffix's
	// tail so that L lies below it. Widen the walk to cover the trigger.
	walkStart := lp.suffixStart
	if wtrig > 0 && L < walkStart {
		walkStart = L
	}
	payload, buffered := r.flushedObjects(&lp, walkStart)
	order, _ := lp.assignSlots(payload, buffered, r.orderBuf, nil)
	r.orderBuf = order
	B := r.flushedBufferSpace(lp.flushIdx)
	LPrime := lp.newEnd - wtrig
	W := L
	if LPrime > W {
		W = LPrime
	}
	W += B + r.delta + wtrig

	var U int64
	for i := range buffered {
		U += buffered[i].size
	}

	moves := r.planBuf[:0]
	// Step 1: evacuate buffered objects to [W, W+U).
	off := W
	for i := range buffered {
		moves = append(moves, buffered[i].relocation(off))
		off += buffered[i].size
	}
	// Step 2: pack payload objects rightward ending at W (largest class
	// first; right-to-left within a class — i.e., reverse address order).
	cursor := W
	for i := len(payload) - 1; i >= 0; i-- {
		cursor -= payload[i].size
		moves = append(moves, payload[i].relocation(cursor))
	}
	// Step 3: unpack leftward to final positions (smallest class first).
	for i := range payload {
		moves = append(moves, payload[i].relocation(payload[i].slot))
	}
	// Step 4: buffered objects down into their payload tails.
	for i := range buffered {
		moves = append(moves, buffered[i].relocation(buffered[i].slot))
	}
	r.planBuf = moves

	// The whole schedule is validated against the pre-flush layout here;
	// the session then advances it in quota-bounded chunks that update the
	// index incrementally, so no chunk pays a suffix rebuild.
	var sess *addrspace.MoveSession
	if !r.serialFlush && len(moves) > 0 {
		var err error
		sess, err = r.space.BeginMoves(moves, walkStart, order)
		if err != nil {
			return err
		}
	}

	// Bookkeeping switches to the post-flush geometry now; physical
	// positions catch up as the plan executes. Every flushed object ends
	// in its payload, where the payload survivors already are.
	for i := range buffered {
		r.recs.setPlace(buffered[i].tag, inPayload)
	}
	r.install(lp)
	r.plan = &flushPlan{
		moves: moves,
		sess:  sess,
	}

	// Updates arriving while the plan runs are placed in the log region,
	// which begins past both the overflow segment and the new tail buffer.
	logBase := W + U
	if r.tailBuf != nil && r.tailBuf.end() > logBase {
		logBase = r.tailBuf.end()
	}
	r.log.reset(logBase)
	if r.tel != nil {
		// Plan construction (layout compute + schedule validation) is
		// flush work: it counts toward the flush's duration, and toward
		// stall when a deferred flush starts under another op's advance.
		r.plan.addSlice(r, telemetry.Now()-t0)
	}
	return nil
}

// advance executes up to q volume of the active flush plan, then drains
// the log; it completes the flush when it reaches the end. A deferred
// flush (tail buffer overflowed during the drain) restarts the cycle.
func (r *Reallocator) advance(q int64) error {
	_, err := r.advanceQuota(q)
	return err
}

// advanceQuota is advance returning the unused quota. The remaining plan
// is consumed in volume-bounded chunks: each call applies one chunk of at
// most q volume (overshooting by at most one move, exactly like the
// per-move quota loop it replaces) through the plan's resumable session —
// a chunk costs O(log n + B) index work per move regardless of how much
// of the plan remains. An atomic drain (the Checkpointed variant, or a
// Drain call before any chunk ran) takes the session's bulk merge path.
func (r *Reallocator) advanceQuota(q int64) (int64, error) {
	for q > 0 && r.plan != nil {
		p := r.plan
		if p.next < len(p.moves) {
			var (
				n   int
				vol int64
				err error
				t0  int64
			)
			if r.tel != nil {
				t0 = telemetry.Now()
			}
			if p.sess != nil {
				n, vol, err = r.advanceSession(p.sess, q)
			} else {
				n, vol, err = r.applyPlanSerial(p.moves[p.next:], q)
			}
			p.next += n
			p.movedVolume += vol
			q -= vol
			if r.tel != nil {
				p.addSlice(r, telemetry.Now()-t0)
				p.chunks++
				r.tel.FlushChunk.Record(vol)
			}
			if err != nil {
				return q, err
			}
			continue
		}
		if r.log.pending() > 0 {
			// One timing slice covers the whole contiguous drain run —
			// per-entry clock reads would double the cost of draining
			// small objects for no extra information.
			var t0 int64
			if r.tel != nil {
				t0 = telemetry.Now()
			}
			var err error
			for q > 0 && err == nil {
				e, ok := r.log.pop()
				if !ok {
					break
				}
				if e.dead {
					continue
				}
				q -= e.size
				if e.insert {
					err = r.drainInsert(e.obj)
				} else {
					err = r.drainDelete(e.obj)
				}
			}
			if r.tel != nil {
				p.addSlice(r, telemetry.Now()-t0)
			}
			if err != nil {
				return q, err
			}
			continue
		}
		if err := r.finishFlush(); err != nil {
			return q, err
		}
	}
	if q < 0 {
		q = 0
	}
	return q, nil
}

// addSlice folds one timed slice of flush work into the plan's
// telemetry accounting; under a stalled op it doubles as that op's
// stall accounting, so the stall metric reuses the slice clock reads
// instead of paying for its own.
func (p *flushPlan) addSlice(r *Reallocator, elapsed int64) {
	p.activeNanos += elapsed
	if r.stalling {
		p.stallNanos += elapsed
		r.opStall += elapsed
	}
}

// advanceStalled is advanceQuota for an op paying its quota into a
// flush it did not trigger: the timed flush-work slices executed on its
// behalf are that op's flush-stall time, recorded per op (opStall
// survives the plan's retirement, which a per-plan delta would not).
func (r *Reallocator) advanceStalled(q int64) (int64, error) {
	if r.tel == nil {
		return r.advanceQuota(q)
	}
	r.opStall = 0
	r.stalling = true
	rem, err := r.advanceQuota(q)
	r.stalling = false
	r.tel.FlushStall.Record(r.opStall)
	return rem, err
}

// finishFlush retires the completed plan and, if the tail buffer
// overflowed while the log drained, immediately triggers the next flush.
func (r *Reallocator) finishFlush() error {
	p := r.plan
	r.plan = nil
	r.rec.Record(trace.Event{Kind: trace.KFlushEnd, Size: p.movedVolume})
	if r.tel != nil {
		r.tel.FlushDuration.Record(p.activeNanos)
		r.tel.FlushMoved.Record(p.movedVolume)
		r.recordCopy()
		r.syncCheckpoints()
		// The span replays the flush's whole timing story through the
		// ordinary event stream, right after its KFlushEnd.
		r.rec.Record(trace.Event{
			Kind: trace.KFlushSpan, ID: p.chunks, Size: p.movedVolume,
			From: p.stallNanos, To: p.activeNanos,
			Footprint: r.space.MaxEnd(), Volume: r.vol,
		})
	}
	r.log.reset(0)
	if t := r.tailBuf; t != nil && t.fill > t.cap {
		return r.startFlush(maxClassSentinel, 0)
	}
	return nil
}

// maxClassSentinel is an effectively unbounded trigger class for flushes
// not triggered by a specific request (deferred tail-overflow flushes);
// the boundary computation lowers it to the smallest buffered class.
const maxClassSentinel = 1 << 20
