package core

import (
	"fmt"

	"realloc/internal/addrspace"
	"realloc/internal/trace"
)

// Insert services an 〈InsertObject, id, size〉 request. The object is
// physically placed before the request returns (mid-flush arrivals land in
// the log region).
func (r *Reallocator) Insert(id ID, size int64) error {
	if size < 1 {
		return fmt.Errorf("%w: got %d", ErrBadSize, size)
	}
	if id == 0 {
		return ErrBadID
	}
	if _, dup := r.space.Extent(id); dup {
		return fmt.Errorf("%w: %d", ErrDuplicate, id)
	}

	// Deamortized: pay this request's share of any in-progress flush
	// first; whatever remains of the quota rolls into a flush this request
	// itself may trigger.
	quota := int64(0)
	if r.cfg.Variant == Deamortized {
		quota = r.workQuota(size)
		if r.plan != nil {
			var err error
			quota, err = r.advanceStalled(quota)
			if err != nil {
				return err
			}
		}
	}
	if r.plan != nil {
		// Flush still running: record the insert in the log.
		err := r.logInsert(id, size)
		r.emitOpEnd()
		if err != nil {
			return err
		}
		return r.maybeCheck()
	}

	if size > r.delta {
		r.delta = size
	}
	c := ClassOf(size)
	r.vol += size
	r.volByClass[c] += size
	obj := r.recs.take()
	obj.id, obj.size, obj.class = id, size, c

	if err := r.insertPlaced(obj, quota); err != nil {
		return err
	}
	r.emitOpEnd()
	return r.maybeCheck()
}

// insertPlaced physically places obj per the variant's rules. quota is
// leftover deamortized work budget for a flush triggered here.
func (r *Reallocator) insertPlaced(obj *object, quota int64) error {
	// A new largest size class gets a fresh region appended after
	// everything, costing at most w + ε'w additional space; no flush.
	if obj.class > r.maxRegionClass() {
		return r.insertNewClass(obj)
	}
	if idx, ok := r.findBuffer(obj.class, obj.size); ok {
		return r.insertIntoBuffer(obj, idx)
	}
	if r.tailBuf != nil && r.tailBuf.fill+obj.size <= r.tailBuf.cap {
		return r.insertIntoTail(obj)
	}
	// No buffer has room: flush.
	switch r.cfg.Variant {
	case Amortized:
		// Section 2: flush first, then place the object at the end of its
		// class's payload (its volume was already counted).
		if err := r.flushRAM(obj.class, obj); err != nil {
			return err
		}
		return nil
	default:
		// Section 3: place the object at the end of the last buffer
		// (exceeding its capacity), then flush; the flush moves it to its
		// payload, which is the flush-triggering item's one extra
		// reallocation.
		if err := r.placeTrigger(obj); err != nil {
			return err
		}
		if err := r.startFlush(obj.class, obj.size); err != nil {
			return err
		}
		if r.cfg.Variant == Checkpointed {
			return r.advance(quotaAll)
		}
		return r.advance(quota)
	}
}

// quotaAll runs a flush to completion (atomic variants).
const quotaAll = int64(1) << 60

// insertNewClass appends a region for a brand-new largest class and places
// obj in its payload. StructSize covers the tail buffer, so in the
// deamortized variant the new region lands after the tail — legal but
// non-contiguous until the next flush rebuilds the canonical order.
func (r *Reallocator) insertNewClass(obj *object) error {
	reg := &region{
		class:    obj.class,
		payStart: r.StructSize(),
		paySize:  obj.size,
		payLive:  obj.size,
		bufSize:  r.bufCap(obj.size),
	}
	if err := r.placeCkpt(obj, addrspace.Extent{Start: reg.payStart, Size: obj.size}); err != nil {
		return err
	}
	r.recs.setPlace(obj.tag, inPayload)
	r.regions = append(r.regions, reg)
	return nil
}

// findBuffer returns the index of the earliest region with class >= c
// whose buffer has size free cells.
func (r *Reallocator) findBuffer(c int, size int64) (int, bool) {
	idx, _ := r.regionIndex(c)
	for ; idx < len(r.regions); idx++ {
		reg := r.regions[idx]
		if reg.bufSize-reg.bufFill >= size {
			return idx, true
		}
	}
	return 0, false
}

// insertIntoBuffer appends obj to region idx's buffer.
func (r *Reallocator) insertIntoBuffer(obj *object, idx int) error {
	reg := r.regions[idx]
	pos := reg.bufStart() + reg.bufFill
	if err := r.placeCkpt(obj, addrspace.Extent{Start: pos, Size: obj.size}); err != nil {
		return err
	}
	r.recs.setPlace(obj.tag, inBuffer)
	obj.bufClass = reg.class
	obj.bufIdx = len(reg.items)
	reg.items = append(reg.items, bufItem{id: obj.id, size: obj.size, class: obj.class})
	reg.bufFill += obj.size
	return nil
}

// insertIntoTail appends obj to the deamortized tail buffer.
func (r *Reallocator) insertIntoTail(obj *object) error {
	t := r.tailBuf
	pos := t.start + t.fill
	if err := r.placeCkpt(obj, addrspace.Extent{Start: pos, Size: obj.size}); err != nil {
		return err
	}
	r.recs.setPlace(obj.tag, inBuffer)
	obj.bufClass = tailBuffer
	obj.bufIdx = len(t.items)
	t.items = append(t.items, bufItem{id: obj.id, size: obj.size, class: obj.class})
	t.fill += obj.size
	return nil
}

// placeTrigger physically places a flush-triggering insert at L, the
// endpoint of the last object, appending it (over capacity) to the last
// buffer segment per Section 3.2.
func (r *Reallocator) placeTrigger(obj *object) error {
	pos := r.space.MaxEnd()
	if err := r.placeCkpt(obj, addrspace.Extent{Start: pos, Size: obj.size}); err != nil {
		return err
	}
	r.recs.setPlace(obj.tag, inBuffer)
	if r.tailBuf != nil {
		t := r.tailBuf
		obj.bufClass = tailBuffer
		obj.bufIdx = len(t.items)
		t.items = append(t.items, bufItem{id: obj.id, size: obj.size, class: obj.class})
		t.fill += obj.size
		return nil
	}
	reg := r.regions[len(r.regions)-1]
	obj.bufClass = reg.class
	obj.bufIdx = len(reg.items)
	reg.items = append(reg.items, bufItem{id: obj.id, size: obj.size, class: obj.class})
	reg.bufFill += obj.size
	return nil
}

// Delete services a 〈DeleteObject, id〉 request.
func (r *Reallocator) Delete(id ID) error {
	obj, ok := r.record(id)
	if !ok || obj.deletePending {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}

	quota := int64(0)
	if r.cfg.Variant == Deamortized {
		quota = r.workQuota(obj.size)
		if r.plan != nil {
			var err error
			quota, err = r.advanceStalled(quota)
			if err != nil {
				return err
			}
		}
	}
	if r.plan != nil {
		err := r.logDelete(obj)
		r.emitOpEnd()
		if err != nil {
			return err
		}
		return r.maybeCheck()
	}

	if err := r.deleteNow(obj, quota); err != nil {
		return err
	}
	r.emitOpEnd()
	return r.maybeCheck()
}

// deleteNow applies a delete outside any active flush.
func (r *Reallocator) deleteNow(obj *object, quota int64) error {
	r.vol -= obj.size
	r.volByClass[obj.class] -= obj.size

	switch r.recs.place(obj.tag) {
	case inBuffer:
		// Convert the buffer entry to a dummy record in place: the entry
		// keeps consuming its space until the next flush, which is what
		// charges the flush's reallocations to this delete.
		r.bufferEntry(obj).id = 0
		if err := r.space.Remove(obj.id); err != nil {
			return err
		}
		r.emit(trace.KDelete, obj.id, obj.size, 0, 0)
		r.recs.put(obj)
		return nil
	case inPayload:
		size, class := obj.size, obj.class
		if idx, ok := r.regionIndex(class); ok {
			r.regions[idx].payLive -= size
		}
		if err := r.space.Remove(obj.id); err != nil {
			return err
		}
		r.emit(trace.KDelete, obj.id, size, 0, 0)
		r.recs.put(obj)
		// The hole persists; a dummy record must consume buffer space so
		// that enough deletes eventually force a flush.
		dummy := bufItem{size: size, class: class}
		if idx, ok := r.findBuffer(class, size); ok {
			reg := r.regions[idx]
			reg.items = append(reg.items, dummy)
			reg.bufFill += size
			return nil
		}
		if t := r.tailBuf; t != nil && t.fill+size <= t.cap {
			t.items = append(t.items, dummy)
			t.fill += size
			return nil
		}
		// The dummy would overflow the last buffer: trigger the flush
		// without consuming space for it (Section 3.2).
		switch r.cfg.Variant {
		case Amortized:
			return r.flushRAM(class, nil)
		default:
			if err := r.startFlush(class, 0); err != nil {
				return err
			}
			if r.cfg.Variant == Checkpointed {
				return r.advance(quotaAll)
			}
			return r.advance(quota)
		}
	default:
		return fmt.Errorf("core: delete of %d in unexpected state %d", obj.id, r.recs.place(obj.tag))
	}
}

// bufferEntry returns the buffer item slot backing a buffered object.
func (r *Reallocator) bufferEntry(obj *object) *bufItem {
	if obj.bufClass == tailBuffer {
		return &r.tailBuf.items[obj.bufIdx]
	}
	idx, ok := r.regionIndex(obj.bufClass)
	if !ok {
		panic(fmt.Sprintf("core: buffered object %d references missing region class %d", obj.id, obj.bufClass))
	}
	return &r.regions[idx].items[obj.bufIdx]
}

// maybeCheck runs the paranoid invariant checker when configured.
func (r *Reallocator) maybeCheck() error {
	if !r.cfg.Paranoid {
		return nil
	}
	return r.CheckInvariants()
}
