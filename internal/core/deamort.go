package core

import (
	"fmt"

	"realloc/internal/addrspace"
	"realloc/internal/trace"
)

// updateLog records requests that arrive while a flush plan is executing
// (Section 3.3). Logged inserts are physically placed in the log region;
// logged deletes keep their object active until the drain applies them.
type updateLog struct {
	entries []logEntry
	head    int
	base    int64 // first cell of the log region
	end     int64 // next free cell
}

// logEntry is one logged request.
type logEntry struct {
	obj    *object
	size   int64
	insert bool
	dead   bool // annihilated insert+delete pair
}

// reset clears the log and rebases its region.
func (l *updateLog) reset(base int64) {
	l.entries = l.entries[:0]
	l.head = 0
	l.base, l.end = base, base
}

// pop removes and returns the oldest entry.
func (l *updateLog) pop() (logEntry, bool) {
	if l.head >= len(l.entries) {
		return logEntry{}, false
	}
	e := l.entries[l.head]
	l.head++
	return e, true
}

// pending returns the number of undrained entries.
func (l *updateLog) pending() int { return len(l.entries) - l.head }

// LogDepth reports how many mid-flush requests are waiting in the log
// (always 0 outside a flush and for non-deamortized variants).
func (r *Reallocator) LogDepth() int { return r.log.pending() }

// logInsert places a mid-flush insert at the end of the log region.
func (r *Reallocator) logInsert(id ID, size int64) error {
	pos := r.log.end
	obj := r.recs.take()
	obj.id, obj.size, obj.class, obj.logIdx = id, size, ClassOf(size), len(r.log.entries)
	r.recs.setPlace(obj.tag, inLog)
	if err := r.placeCkpt(obj, addrspace.Extent{Start: pos, Size: size}); err != nil {
		return err
	}
	r.vol += size
	r.volByClass[obj.class] += size
	if size > r.delta {
		r.delta = size
	}
	r.log.entries = append(r.log.entries, logEntry{obj: obj, size: size, insert: true})
	r.log.end += size
	return nil
}

// logDelete records a mid-flush delete. Deleting an object that was itself
// inserted during this flush annihilates the pair immediately; otherwise
// the object stays active until the drain re-applies the delete.
func (r *Reallocator) logDelete(obj *object) error {
	if r.recs.place(obj.tag) == inLog {
		r.log.entries[obj.logIdx].dead = true
		if err := r.space.Remove(obj.id); err != nil {
			return err
		}
		r.vol -= obj.size
		r.volByClass[obj.class] -= obj.size
		r.emit(trace.KDelete, obj.id, obj.size, 0, 0)
		r.recs.put(obj)
		return nil
	}
	obj.deletePending = true
	r.log.entries = append(r.log.entries, logEntry{obj: obj, size: obj.size, insert: false})
	return nil
}

// drainInsert re-inserts a logged object into the (freshly flushed)
// structure, moving it out of the log region. This is the one extra
// reallocation Lemma 3.6 charges to logged objects.
func (r *Reallocator) drainInsert(obj *object) error {
	if r.recs.place(obj.tag) != inLog {
		return fmt.Errorf("core: drain of object %d not in log", obj.id)
	}
	// A brand-new largest class appends its region beyond everything
	// placed so far; the layout becomes non-contiguous until the next
	// flush rebuilds it.
	if obj.class > r.maxRegionClass() {
		reg := &region{
			class:    obj.class,
			payStart: r.parkPastAll(obj.size),
			paySize:  obj.size,
			payLive:  obj.size,
			bufSize:  r.bufCap(obj.size),
		}
		if _, err := r.moveObj(obj, reg.payStart); err != nil {
			return err
		}
		r.recs.setPlace(obj.tag, inPayload)
		r.regions = append(r.regions, reg)
		r.dirty = true
		return nil
	}
	if idx, ok := r.findBuffer(obj.class, obj.size); ok {
		reg := r.regions[idx]
		if _, err := r.moveObj(obj, reg.bufStart()+reg.bufFill); err != nil {
			return err
		}
		r.recs.setPlace(obj.tag, inBuffer)
		obj.bufClass = reg.class
		obj.bufIdx = len(reg.items)
		reg.items = append(reg.items, bufItem{id: obj.id, size: obj.size, class: obj.class})
		reg.bufFill += obj.size
		return nil
	}
	t := r.tailBuf
	pos := t.start + t.fill
	if t.fill+obj.size > t.cap {
		// Tail overflow: park the object past everything; finishFlush will
		// trigger the next flush, which rebuilds the canonical layout.
		pos = r.parkPastAll(obj.size)
		r.dirty = true
	}
	if _, err := r.moveObj(obj, pos); err != nil {
		return err
	}
	r.recs.setPlace(obj.tag, inBuffer)
	obj.bufClass = tailBuffer
	obj.bufIdx = len(t.items)
	t.items = append(t.items, bufItem{id: obj.id, size: obj.size, class: obj.class})
	t.fill += obj.size
	return nil
}

// parkPastAll returns where the drain parks an object of the given size
// outside the structure: past every placed object and the structure's
// end. That can lie beyond the log region's end, so the log end moves
// past the parked object — later inserts logged by the same flush must
// not land on it.
func (r *Reallocator) parkPastAll(size int64) int64 {
	pos := r.space.MaxEnd()
	if s := r.structEndCurrent(); s > pos {
		pos = s
	}
	if end := pos + size; end > r.log.end {
		r.log.end = end
	}
	return pos
}

// drainDelete applies a logged delete. The object has been kept active
// (and possibly reallocated by the flush) in the meantime.
func (r *Reallocator) drainDelete(obj *object) error {
	if !obj.deletePending {
		return fmt.Errorf("core: drain of delete for %d without pending mark", obj.id)
	}
	obj.deletePending = false
	r.vol -= obj.size
	r.volByClass[obj.class] -= obj.size

	switch r.recs.place(obj.tag) {
	case inBuffer:
		r.bufferEntry(obj).id = 0
		if err := r.space.Remove(obj.id); err != nil {
			return err
		}
	case inPayload:
		if idx, ok := r.regionIndex(obj.class); ok {
			r.regions[idx].payLive -= obj.size
		}
		if err := r.space.Remove(obj.id); err != nil {
			return err
		}
		dummy := bufItem{size: obj.size, class: obj.class}
		if idx, ok := r.findBuffer(obj.class, obj.size); ok {
			reg := r.regions[idx]
			reg.items = append(reg.items, dummy)
			reg.bufFill += obj.size
		} else {
			// Over-capacity tail dummies trigger the deferred flush in
			// finishFlush, mirroring "delete would overflow the last
			// buffer => flush".
			t := r.tailBuf
			t.items = append(t.items, dummy)
			t.fill += obj.size
		}
	default:
		return fmt.Errorf("core: drained delete of %d in unexpected state %d", obj.id, r.recs.place(obj.tag))
	}
	r.emit(trace.KDelete, obj.id, obj.size, 0, 0)
	r.recs.put(obj)
	return nil
}
