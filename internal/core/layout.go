package core

import (
	"slices"

	"realloc/internal/addrspace"
)

// boundaryClass computes the flush boundary b: the maximum class such that
// every item buffered in classes >= b (tail buffer included) and the
// triggering item belong to classes >= b. Scanning regions from largest to
// smallest and lowering b as smaller-class items appear reaches the
// maximum fixed point.
func (r *Reallocator) boundaryClass(trigClass int) int {
	b := trigClass
	if t := r.tailBuf; t != nil {
		// The tail buffer follows every region, so any flush flushes it;
		// all of its items constrain b.
		for _, it := range t.items {
			if it.class < b {
				b = it.class
			}
		}
	}
	for k := len(r.regions) - 1; k >= 0 && r.regions[k].class >= b; k-- {
		for _, it := range r.regions[k].items {
			if it.class < b {
				b = it.class
			}
		}
	}
	return b
}

// layoutPlan is the computed post-flush geometry of the flushed suffix.
// Its region slice is scratch owned by the Reallocator; install consumes
// it before the next flush rebuilds it.
type layoutPlan struct {
	boundary    int
	flushIdx    int   // regions[flushIdx:] are flushed
	suffixStart int64 // where the rebuilt suffix begins
	newRegions  []*region
	// regionAt holds, per size class, 1 + the class's newRegions index (0:
	// the class has no region), so per-object lookups cost no search.
	regionAt   [numClasses]uint8
	newEnd     int64 // absolute end of the rebuilt suffix (payloads+buffers)
	newTailCap int64 // deamortized: capacity of the new tail buffer
}

// computeLayout determines the new suffix geometry for a flush with
// boundary b. Classes >= b with live volume get payload V(c) and buffer
// ⌊ε'·V(c)⌋; empty classes vanish. Region records come from the pool of
// previously flushed-away regions, so steady-state flushes allocate
// nothing here.
func (r *Reallocator) computeLayout(b int) layoutPlan {
	idx, _ := r.regionIndex(b)
	start := int64(0)
	if idx > 0 {
		start = r.regions[idx-1].end()
	}
	classes := r.classBuf[:0]
	for c := max(b, 0); c < numClasses; c++ {
		if r.volByClass[c] > 0 {
			classes = append(classes, c)
		}
	}
	r.classBuf = classes
	lp := layoutPlan{boundary: b, flushIdx: idx, suffixStart: start, newRegions: r.regionBuf[:0]}
	pos := start
	for _, c := range classes {
		v := r.volByClass[c]
		reg := r.takeRegion()
		reg.class = c
		reg.payStart = pos
		reg.paySize = v
		reg.payLive = v
		reg.bufSize = r.bufCap(v)
		reg.cursor = pos
		reg.next = 0
		pos = reg.end()
		lp.newRegions = append(lp.newRegions, reg)
		lp.regionAt[c] = uint8(len(lp.newRegions))
	}
	r.regionBuf = lp.newRegions
	lp.newEnd = pos
	if r.tailBuf != nil {
		lp.newTailCap = r.bufCap(r.vol)
	}
	return lp
}

// takeRegion returns a recycled region record (buffer items cleared, fill
// zeroed) or a fresh one.
func (r *Reallocator) takeRegion() *region {
	if n := len(r.regionPool); n > 0 {
		reg := r.regionPool[n-1]
		r.regionPool = r.regionPool[:n-1]
		reg.items = reg.items[:0]
		reg.bufFill = 0
		return reg
	}
	return &region{}
}

// flushObj is one flushed object as flush planning sees it. The suffix
// walk fills one of these per flushed object from the index entry and
// the object's place byte; slots, the final order and the move plan are
// then computed over the dense array, so planning never touches a record.
type flushObj struct {
	id    ID
	size  int64
	start int64 // current start
	slot  int64 // post-flush start, written by assignSlots
	class int
	rank  int32 // rank in the walked suffix: the object's Relocation.Ref
	tag   int32 // the object's record
}

// relocation returns the plan step moving o to to.
func (o *flushObj) relocation(to int64) addrspace.Relocation {
	return addrspace.Relocation{ID: o.id, To: to, Ref: o.rank}
}

// flushedObjects gathers the live objects involved in flushing classes
// >= lp.boundary, split into payload survivors and buffered objects, each
// sorted by current address (dummies are not objects and are simply
// dropped), and counts each new region's objects into its next field.
// The flushed classes occupy the address suffix starting at from (the
// boundary computation guarantees no smaller-class item is buffered
// there), and the substrate's index is address-sorted, so one ranged walk
// collects both lists in order — no per-flush sort, no full-index scan,
// and the returned slices are scratch reused across flushes. The walk
// yields each index entry's id, extent and tag; the class follows from
// the size, and the place is the one byte records keeps per tag, so the
// walk streams the index and that byte slice and loads no record. Each
// object's rank in the walk is the Ref a plan applied against from names
// it by. The trigger object, if physically placed in a buffer already, is
// among the buffered ones.
func (r *Reallocator) flushedObjects(lp *layoutPlan, from int64) (payload, buffered []flushObj) {
	pay, buf := r.payBuf[:0], r.bufBuf[:0]
	rank := int32(0)
	r.space.SuffixTags(from, func(id ID, ext addrspace.Extent, tag int32) {
		if c := ClassOf(ext.Size); c >= lp.boundary {
			if p := r.recs.place(tag); p == inPayload || p == inBuffer {
				fo := flushObj{id: id, size: ext.Size, start: ext.Start, class: c, rank: rank, tag: tag}
				if p == inPayload {
					pay = append(pay, fo)
				} else {
					buf = append(buf, fo)
				}
				lp.regionOf(c).next++
			}
		}
		rank++
	})
	r.payBuf, r.bufBuf = pay, buf
	return pay, buf
}

// assignSlots writes every flushed object's post-flush position into its
// slot: per class, payload survivors first (in their current relative
// order), then buffered objects, then the pending Section 2 trigger
// object (which is not yet physically placed and gets the reserved end of
// its class payload; its slot is returned). In the same pass it lists the
// objects' plan refs in order of final position into order, reusing its
// storage: region by region ascending, each region's slice of order
// starting where flushedObjects' counts put it.
func (lp *layoutPlan) assignSlots(payload, buffered []flushObj, order []int32, trigger *object) ([]int32, int64) {
	n := 0
	for _, reg := range lp.newRegions {
		reg.next, n = n, n+reg.next
	}
	order = slices.Grow(order[:0], n)[:n]
	for _, objs := range [2][]flushObj{payload, buffered} {
		for i := range objs {
			o := &objs[i]
			reg := lp.regionOf(o.class)
			o.slot = reg.cursor
			reg.cursor += o.size
			order[reg.next] = o.rank
			reg.next++
		}
	}
	var trigSlot int64
	if trigger != nil {
		reg := lp.regionOf(trigger.class)
		trigSlot = reg.payStart + reg.paySize - trigger.size
	}
	return order, trigSlot
}

// regionIdx returns the newRegions index of class c's region (must exist).
func (lp *layoutPlan) regionIdx(c int) int {
	if i := int(lp.regionAt[c]) - 1; i >= 0 {
		return i
	}
	panic("core: layout missing region for flushed class")
}

// regionOf returns the new region for class c (must exist).
func (lp *layoutPlan) regionOf(c int) *region { return lp.newRegions[lp.regionIdx(c)] }

// install replaces the flushed suffix bookkeeping with the new geometry
// and resets the tail buffer. The replaced region records join the pool
// for the next computeLayout. Physical object positions are the flush
// executor's responsibility.
func (r *Reallocator) install(lp layoutPlan) {
	r.regionPool = append(r.regionPool, r.regions[lp.flushIdx:]...)
	r.regions = append(r.regions[:lp.flushIdx], lp.newRegions...)
	if t := r.tailBuf; t != nil {
		t.start = lp.newEnd
		t.cap = lp.newTailCap
		t.fill = 0
		t.items = t.items[:0]
	}
	r.dirty = false
}

// flushedBufferSpace returns B: the total buffer capacity of the flushed
// suffix, tail included.
func (r *Reallocator) flushedBufferSpace(flushIdx int) int64 {
	var b int64
	for _, reg := range r.regions[flushIdx:] {
		b += reg.bufSize
	}
	if r.tailBuf != nil {
		b += r.tailBuf.cap
	}
	return b
}

// structEndCurrent returns the end of the current bookkeeping structure
// (regions plus tail capacity), ignoring transient working space.
func (r *Reallocator) structEndCurrent() int64 {
	end := int64(0)
	if n := len(r.regions); n > 0 {
		end = r.regions[n-1].end()
	}
	if r.tailBuf != nil && r.tailBuf.end() > end {
		end = r.tailBuf.end()
	}
	return end
}
