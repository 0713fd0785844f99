package core

import (
	"fmt"

	"realloc/internal/addrspace"
)

// CheckInvariants validates the full data-structure state: the substrate's
// disjointness, Invariants 2.2-2.4 (region composition, payload class
// purity, buffer class bounds, empty overflow outside flushes), volume
// accounting, and the steady-state footprint bound of Lemma 2.5. It is
// O(n) and meant for tests (Config.Paranoid runs it after every request).
func (r *Reallocator) CheckInvariants() error {
	if err := r.space.Verify(); err != nil {
		return err
	}
	if err := r.checkRegions(); err != nil {
		return err
	}
	if err := r.checkObjects(); err != nil {
		return err
	}
	if err := r.checkVolumes(); err != nil {
		return err
	}
	return r.checkFootprint()
}

// checkRegions validates region geometry and buffer accounting.
func (r *Reallocator) checkRegions() error {
	prevClass := -1
	var prevEnd int64
	contiguous := r.cfg.Variant != Deamortized
	for i, reg := range r.regions {
		if reg.class <= prevClass {
			return fmt.Errorf("core: region classes out of order at index %d (%d after %d)", i, reg.class, prevClass)
		}
		if reg.payStart < prevEnd {
			return fmt.Errorf("core: region %d overlaps predecessor (%d < %d)", reg.class, reg.payStart, prevEnd)
		}
		if contiguous && reg.payStart != prevEnd {
			return fmt.Errorf("core: region %d not contiguous (starts %d, prev ends %d)", reg.class, reg.payStart, prevEnd)
		}
		if reg.paySize < 0 || reg.bufSize < 0 || reg.payLive < 0 {
			return fmt.Errorf("core: region %d has negative geometry %+v", reg.class, *reg)
		}
		if reg.payLive > reg.paySize {
			return fmt.Errorf("core: region %d live volume %d exceeds payload %d", reg.class, reg.payLive, reg.paySize)
		}
		var fill int64
		for _, it := range reg.items {
			if it.size < 1 {
				return fmt.Errorf("core: region %d has empty buffer item", reg.class)
			}
			if it.class > reg.class {
				return fmt.Errorf("core: region %d buffers class-%d item (Invariant 2.2.4)", reg.class, it.class)
			}
			fill += it.size
		}
		if fill != reg.bufFill {
			return fmt.Errorf("core: region %d buffer fill %d != items total %d", reg.class, reg.bufFill, fill)
		}
		if reg.bufFill > reg.bufSize {
			return fmt.Errorf("core: region %d buffer overfilled (%d > %d)", reg.class, reg.bufFill, reg.bufSize)
		}
		prevClass = reg.class
		prevEnd = reg.end()
	}
	if t := r.tailBuf; t != nil {
		var fill int64
		for _, it := range t.items {
			if it.size < 1 {
				return fmt.Errorf("core: tail buffer has empty item")
			}
			fill += it.size
		}
		if fill != t.fill {
			return fmt.Errorf("core: tail fill %d != items total %d", t.fill, fill)
		}
		if t.fill > t.cap && r.plan == nil && !r.dirty {
			return fmt.Errorf("core: tail buffer overfilled (%d > %d) outside a flush", t.fill, t.cap)
		}
	}
	return nil
}

// checkObjects validates each object's record against the physical
// substrate, walking the tagged index entries: every entry's tag must
// name the live record with the entry's id and size, and there must be
// as many live records as placed objects, so no record is left unplaced.
// Positional checks are skipped mid-flush and under the dirty flag, when
// bookkeeping intentionally runs ahead of physics.
func (r *Reallocator) checkObjects() error {
	quiescent := r.plan == nil && !r.dirty
	var payLive [numClasses]int64
	var err error
	r.space.ForEachTagged(func(id ID, ext addrspace.Extent, tag int32) {
		if err == nil {
			err = r.checkObject(id, ext, tag, quiescent, &payLive)
		}
	})
	if err != nil {
		return err
	}
	live := 0
	for tag := range r.recs.used {
		if r.recs.at(tag).id != 0 {
			live++
		}
	}
	if live != r.space.Len() {
		return fmt.Errorf("core: %d live records, %d placed objects", live, r.space.Len())
	}
	if quiescent {
		for _, reg := range r.regions {
			if payLive[reg.class] != reg.payLive {
				return fmt.Errorf("core: region %d payLive %d != actual %d", reg.class, reg.payLive, payLive[reg.class])
			}
		}
	}
	return nil
}

// checkObject validates the record behind one tagged index entry, adding
// payload objects' volume into payLive.
func (r *Reallocator) checkObject(id ID, ext addrspace.Extent, tag int32, quiescent bool, payLive *[numClasses]int64) error {
	if tag < 0 || tag >= r.recs.used {
		return fmt.Errorf("core: object %d at %v carries tag %d, past the %d records", id, ext, tag, r.recs.used)
	}
	o := r.recs.at(tag)
	if o.id != id || o.size != ext.Size {
		return fmt.Errorf("core: object %d at %v carries tag %d, whose record is object %d of size %d", id, ext, tag, o.id, o.size)
	}
	if o.size < 1 || ClassOf(o.size) != o.class {
		return fmt.Errorf("core: object %d size/class mismatch (%d, %d)", id, o.size, o.class)
	}
	switch r.recs.place(tag) {
	case inPayload:
		payLive[o.class] += o.size
		if !quiescent {
			return nil
		}
		idx, ok := r.regionIndex(o.class)
		if !ok {
			return fmt.Errorf("core: payload object %d of class %d has no region", id, o.class)
		}
		reg := r.regions[idx]
		if ext.Start < reg.payStart || ext.End() > reg.payStart+reg.paySize {
			return fmt.Errorf("core: object %d at %v outside class-%d payload [%d,%d) (Invariant 2.2.3)",
				id, ext, o.class, reg.payStart, reg.payStart+reg.paySize)
		}
	case inBuffer:
		if !quiescent {
			return nil
		}
		var start, fill int64
		var regClass int
		if o.bufClass == tailBuffer {
			if r.tailBuf == nil {
				return fmt.Errorf("core: object %d claims tail buffer in non-deamortized variant", id)
			}
			start, fill = r.tailBuf.start, r.tailBuf.fill
			regClass = maxClassSentinel
			if o.bufIdx >= len(r.tailBuf.items) || r.tailBuf.items[o.bufIdx].id != id {
				return fmt.Errorf("core: object %d tail item entry mismatch", id)
			}
		} else {
			idx, ok := r.regionIndex(o.bufClass)
			if !ok {
				return fmt.Errorf("core: buffered object %d references missing region %d", id, o.bufClass)
			}
			reg := r.regions[idx]
			start, fill = reg.bufStart(), reg.bufFill
			regClass = reg.class
			if o.bufIdx >= len(reg.items) || reg.items[o.bufIdx].id != id {
				return fmt.Errorf("core: object %d buffer item entry mismatch", id)
			}
		}
		if o.class > regClass {
			return fmt.Errorf("core: class-%d object %d buffered in class-%d buffer (Invariant 2.2.4)", o.class, id, regClass)
		}
		if ext.Start < start || ext.End() > start+fill {
			return fmt.Errorf("core: buffered object %d at %v outside buffer fill [%d,%d)", id, ext, start, start+fill)
		}
	case inLog:
		if r.plan == nil {
			return fmt.Errorf("core: object %d in log with no flush active (Invariant 2.3)", id)
		}
		if ext.Start < r.log.base || ext.End() > r.log.end {
			return fmt.Errorf("core: logged object %d at %v outside log [%d,%d)", id, ext, r.log.base, r.log.end)
		}
	default:
		return fmt.Errorf("core: object %d in limbo", id)
	}
	return nil
}

// checkVolumes validates V and per-class volume accounting against the
// records the tagged index entries name (checkObjects has vetted them).
func (r *Reallocator) checkVolumes() error {
	var byClass [numClasses]int64
	var total int64
	r.space.ForEachTagged(func(_ ID, _ addrspace.Extent, tag int32) {
		o := r.recs.at(tag)
		byClass[o.class] += o.size
		total += o.size
	})
	if total != r.vol {
		return fmt.Errorf("core: volume accounting: tracked %d, actual %d", r.vol, total)
	}
	for c, v := range r.volByClass {
		if v < 0 {
			return fmt.Errorf("core: class %d has negative volume %d", c, v)
		}
		if byClass[c] != v {
			return fmt.Errorf("core: class %d volume: tracked %d, actual %d", c, v, byClass[c])
		}
	}
	return nil
}

// checkFootprint enforces the steady-state Lemma 2.5 bound between
// flushes: struct <= (1+kε')/(1-kε')·V (+2 cells of rounding slack), with
// k=1 normally and k=2 for the deamortized variant, whose tail buffer both
// consumes a second ε' of structure and admits a second ε' of volume
// drift (Lemma 3.5).
func (r *Reallocator) checkFootprint() error {
	if r.plan != nil || r.dirty || r.vol == 0 {
		return nil
	}
	k := 1.0
	if r.cfg.Variant == Deamortized {
		k = 2.0
	}
	bound := (1+k*r.eps)/(1-k*r.eps)*float64(r.vol) + 2
	if s := float64(r.structEndCurrent()); s > bound {
		return fmt.Errorf("core: structure size %.0f exceeds Lemma 2.5 bound %.1f (V=%d, eps'=%v)", s, bound, r.vol, r.eps)
	}
	return nil
}
