// Package fcs is a slot-class reallocator with the folklore amortized
// O(w/ε) bound, motivated by Farach-Colton and Sheffield ("A Nearly
// Quadratic Improvement for Memory Reallocation", arXiv 2405.12152) but
// not their Õ(ε^{-1/2}) algorithm. It runs on the same substrate as the
// PODS'14 reference core.
//
// The algorithm trades the paper's hole-free region layout for geometric
// size classes of fixed-width slots. Object sizes are rounded up to the
// nearest slot capacity from the table cap_0 = 1, cap_{i+1} =
// max(cap_i + 1, ⌊cap_i · g⌋) with g = 1 + ε/4, so slot waste is at most
// a factor g per object. Each class keeps its occupied slots as a prefix
// of its slot list:
//
//   - Insert places the object into the class's first free slot, or
//     appends a fresh slot at the allocation frontier. No live object
//     moves.
//   - Delete frees the slot and restores the prefix invariant by moving
//     the class's last occupied object into the hole — exactly one move
//     of volume at most g·w for a size-w delete.
//   - When the frontier drifts past (1+ε)·V, a rebuild repacks every
//     slot contiguously (classes ascending). Each live object moves at
//     most twice, so a rebuild costs at most 2V moved volume — and a
//     rebuild is only reachable after Ω(ε·V) volume of deletes, because
//     fresh-slot inserts grow the frontier by at most g·w < (1+ε)·w.
//
// Together these give amortized O(w/ε) moved volume per size-w update —
// the folklore linear-in-1/ε bound, without the reference algorithm's
// log(1/ε) factor — while the footprint stays within (1+ε)·V at every
// quiescent point. The price is slot slack: the structure end is a
// g-factor rounding above the packed volume, where the PODS'14 core
// packs payload regions hole-free.
package fcs

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"realloc/internal/addrspace"
	"realloc/internal/arena"
	"realloc/internal/telemetry"
	"realloc/internal/trace"
)

// ID identifies an object; it is the caller's handle.
type ID = addrspace.ID

// Errors reported by the reallocator.
var (
	ErrBadSize   = errors.New("fcs: object size must be >= 1")
	ErrBadID     = errors.New("fcs: object id must be non-zero")
	ErrDuplicate = errors.New("fcs: object already exists")
	ErrNotFound  = errors.New("fcs: no such object")
	ErrEpsilon   = errors.New("fcs: epsilon must be in (0, 1]")
)

// Config parameterizes New.
type Config struct {
	// Epsilon is the footprint slack target in (0, 1].
	Epsilon float64
	// Recorder receives the event stream; nil means trace.Null.
	Recorder trace.Recorder
	// TrackCells enables per-cell data stamps in the substrate.
	TrackCells bool
	// Paranoid re-validates every invariant after each request.
	Paranoid bool
	// Telemetry, when non-nil, receives rebuild timings: each rebuild is
	// one atomic flush span (duration, moved volume, a single chunk).
	Telemetry *telemetry.Set
	// Arena is the payload backend relocations execute against. Nil
	// defaults to the metered backend.
	Arena arena.Backend
}

// class is one geometric size class: a list of fixed-width slots whose
// occupied entries form a prefix. Each live object is placed in the
// substrate with its class index as the tag, so the substrate's id table
// is the only id map: an object's slot is found by binary search of its
// start over starts, which ascends because slots are cut at the frontier
// and rebuild reassigns them in order.
type class struct {
	starts []int64 // slot start addresses, ascending
	ids    []ID    // ids[j] is the occupant of slot j, for j < occ
	occ    int     // occupied-slot count; slots occ..len-1 are free
}

// Reallocator is the slot-class reallocator. It is not safe for
// concurrent use.
type Reallocator struct {
	cfg     Config
	g       float64 // slot-capacity growth factor, 1 + ε/4
	space   *addrspace.Space
	rec     trace.Recorder
	nullRec bool

	caps    []int64 // cap table, extended on demand
	classes []class

	allocEnd int64 // allocation frontier: end of the highest slot ever cut
	vol      int64 // total live volume V
	delta    int64 // largest size seen (the paper's ∆)
	rebuilds int64 // full repacks run (reported as Flushes)

	// rebuild scratch, reused across rebuilds: the move plan, every
	// object's rank in packed order (the plan's final order), and the
	// per-class cursors that fill it.
	planBuf  []addrspace.Relocation
	orderBuf []int32
	nextBuf  []int
}

// New creates a Reallocator.
func New(cfg Config) (*Reallocator, error) {
	if !(cfg.Epsilon > 0) || cfg.Epsilon > 1 {
		return nil, fmt.Errorf("%w: got %v", ErrEpsilon, cfg.Epsilon)
	}
	opts := addrspace.RAM()
	opts.TrackCells = cfg.TrackCells
	if cfg.Arena == nil {
		cfg.Arena, _ = arena.New(arena.Metered)
	}
	opts.Data = cfg.Arena
	rec := cfg.Recorder
	if rec == nil {
		rec = trace.Null{}
	}
	_, nullRec := rec.(trace.Null)
	return &Reallocator{
		cfg:     cfg,
		g:       1 + cfg.Epsilon/4,
		space:   addrspace.New(opts),
		rec:     rec,
		nullRec: nullRec,
		caps:    []int64{1},
	}, nil
}

// classFor returns the smallest class whose capacity fits size, growing
// the cap table as needed.
func (r *Reallocator) classFor(size int64) int {
	for r.caps[len(r.caps)-1] < size {
		last := r.caps[len(r.caps)-1]
		next := int64(math.Floor(float64(last) * r.g))
		if next <= last {
			next = last + 1
		}
		r.caps = append(r.caps, next)
	}
	return sort.Search(len(r.caps), func(i int) bool { return r.caps[i] >= size })
}

// Volume returns the total live volume V.
func (r *Reallocator) Volume() int64 { return r.vol }

// Footprint returns the largest allocated address.
func (r *Reallocator) Footprint() int64 { return r.space.MaxEnd() }

// StructSize returns the allocation frontier: the end of the slot
// structure including free slots and rounding slack.
func (r *Reallocator) StructSize() int64 { return r.allocEnd }

// Delta returns the largest object size seen.
func (r *Reallocator) Delta() int64 { return r.delta }

// Len returns the number of live objects.
func (r *Reallocator) Len() int { return r.space.Len() }

// Flushes returns how many full rebuilds have run; rebuilds are this
// core's flush analogue.
func (r *Reallocator) Flushes() int64 { return r.rebuilds }

// FlushActive reports whether an incremental flush is mid-execution;
// rebuilds are atomic, so it is always false.
func (r *Reallocator) FlushActive() bool { return false }

// Drain completes any in-progress flush; rebuilds are atomic, so it is a
// no-op.
func (r *Reallocator) Drain() error { return nil }

// Epsilon returns the configured footprint slack target.
func (r *Reallocator) Epsilon() float64 { return r.cfg.Epsilon }

// Space exposes the substrate for tests.
func (r *Reallocator) Space() *addrspace.Space { return r.space }

// Data exposes the payload backend relocations execute against.
func (r *Reallocator) Data() arena.Backend { return r.space.Data() }

// Write copies p into object id's payload bytes (real backends only).
func (r *Reallocator) Write(id ID, p []byte) error { return r.space.WriteData(id, p) }

// Read copies object id's payload bytes into p.
func (r *Reallocator) Read(id ID, p []byte) (int, error) { return r.space.ReadData(id, p) }

// Bytes returns object id's live payload slice (valid until the next
// mutating call).
func (r *Reallocator) Bytes(id ID) ([]byte, bool) { return r.space.DataBytes(id) }

// Extent returns the object's current physical placement.
func (r *Reallocator) Extent(id ID) (addrspace.Extent, bool) {
	return r.space.Extent(id)
}

// Has reports whether id is live.
func (r *Reallocator) Has(id ID) bool {
	_, ok := r.space.Extent(id)
	return ok
}

// SizeOf returns the size of object id.
func (r *Reallocator) SizeOf(id ID) (int64, bool) {
	ext, ok := r.space.Extent(id)
	return ext.Size, ok
}

// ForEach visits live objects in address order.
func (r *Reallocator) ForEach(fn func(id ID, ext addrspace.Extent)) {
	r.space.ForEach(fn)
}

// emit sends an event to the recorder, filling in footprint and volume.
func (r *Reallocator) emit(kind trace.Kind, id ID, size, from, to int64) {
	if r.nullRec {
		return
	}
	r.rec.Record(trace.Event{
		Kind: kind, ID: int64(id), Size: size, From: from, To: to,
		Footprint: r.space.MaxEnd(), Volume: r.vol,
	})
}

// emitOpEnd closes a request.
func (r *Reallocator) emitOpEnd() {
	if r.nullRec {
		return
	}
	r.rec.Record(trace.Event{
		Kind: trace.KOpEnd, From: r.allocEnd,
		Footprint: r.space.MaxEnd(), Volume: r.vol,
	})
}

// Insert services 〈InsertObject, id, size〉. The object lands in its
// class's first free slot, or in a fresh slot cut at the frontier; no
// live object moves.
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
	c := r.classFor(size)
	for len(r.classes) <= c {
		r.classes = append(r.classes, class{})
	}
	cl := &r.classes[c]
	if cl.occ == len(cl.starts) {
		cl.starts = append(cl.starts, r.allocEnd)
		cl.ids = append(cl.ids, 0)
		r.allocEnd += r.caps[c]
	}
	start := cl.starts[cl.occ]
	if err := r.space.PlaceTagged(id, addrspace.Extent{Start: start, Size: size}, int32(c)); err != nil {
		return err
	}
	cl.ids[cl.occ] = id
	cl.occ++
	r.vol += size
	if size > r.delta {
		r.delta = size
	}
	r.emit(trace.KInsert, id, size, 0, start)
	if err := r.maybeRebuild(); err != nil {
		return err
	}
	r.emitOpEnd()
	return r.maybeCheck()
}

// Delete services 〈DeleteObject, id〉. The class's last occupied object
// swaps into the hole, restoring the prefix invariant with one move.
func (r *Reallocator) Delete(id ID) error {
	ext, c, ok := r.space.Lookup(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	cl := &r.classes[c]
	j, found := slices.BinarySearch(cl.starts[:cl.occ], ext.Start)
	if !found {
		return fmt.Errorf("fcs: object %d at %v is in no slot of class %d", id, ext, c)
	}
	if err := r.space.Remove(id); err != nil {
		return err
	}
	r.vol -= ext.Size
	r.emit(trace.KDelete, id, ext.Size, 0, 0)
	last := cl.occ - 1
	if j != last {
		moverID := cl.ids[last]
		mover, _ := r.space.Extent(moverID)
		from, to := cl.starts[last], cl.starts[j]
		if err := r.space.Move(moverID, to); err != nil {
			return err
		}
		cl.ids[j] = moverID
		r.emit(trace.KMove, moverID, mover.Size, from, to)
	}
	cl.ids[last] = 0
	cl.occ = last
	if err := r.maybeRebuild(); err != nil {
		return err
	}
	r.emitOpEnd()
	return r.maybeCheck()
}

// overLimit reports whether the frontier has drifted past (1+ε)·V.
func (r *Reallocator) overLimit() bool {
	if r.vol == 0 {
		return r.allocEnd > 0
	}
	return float64(r.allocEnd) > (1+r.cfg.Epsilon)*float64(r.vol)
}

// maybeRebuild repacks the whole structure when the frontier exceeds the
// footprint budget. The repacked frontier is at most g·V ≤ (1+ε)·V, so
// one rebuild always restores the invariant.
func (r *Reallocator) maybeRebuild() error {
	if !r.overLimit() {
		return nil
	}
	return r.rebuild()
}

// rebuild repacks every occupied slot contiguously from address 0,
// classes ascending. Every object is first parked in the staging area
// past the old frontier, then moved to its packed slot, so no move ever
// lands on a live extent; each object moves at most twice. Objects whose
// slot does not change address stay put. The schedule runs as one
// whole-plan chunk of a move session, like a PODS'14 flush.
func (r *Reallocator) rebuild() error {
	// Rank every object in one index walk. An entry's tag is its class,
	// and a class's slots ascend, so the class's j-th entry in address
	// order occupies slot j; packed order is class-major, slot-minor, so
	// order, filled by per-class cursors, lists the ranks by final
	// position.
	next := r.nextBuf[:0]
	n := 0
	for c := range r.classes {
		next = append(next, n)
		n += r.classes[c].occ
	}
	order := slices.Grow(r.orderBuf[:0], n)[:n]
	rank := int32(0)
	r.space.SuffixTags(0, func(_ addrspace.ID, _ addrspace.Extent, tag int32) {
		order[next[tag]] = rank
		next[tag]++
		rank++
	})
	r.nextBuf, r.orderBuf = next, order

	// Park every object whose slot moves, in packed order, then pack
	// them in the same order.
	plan := r.planBuf[:0]
	staging := r.allocEnd
	var cursor int64
	k := 0
	for c := range r.classes {
		cl := &r.classes[c]
		for j := 0; j < cl.occ; j++ {
			if cl.starts[j] != cursor {
				ext, _ := r.space.Extent(cl.ids[j])
				plan = append(plan, addrspace.Relocation{ID: cl.ids[j], To: staging, Ref: order[k]})
				staging += ext.Size
			}
			cursor += r.caps[c]
			k++
		}
	}
	cursor, k = 0, 0
	for c := range r.classes {
		cl := &r.classes[c]
		for j := 0; j < cl.occ; j++ {
			if cl.starts[j] != cursor {
				plan = append(plan, addrspace.Relocation{ID: cl.ids[j], To: cursor, Ref: order[k]})
				cl.starts[j] = cursor
			}
			cursor += r.caps[c]
			k++
		}
		// Free slots are forgotten; their space is reclaimed wholesale.
		cl.starts = cl.starts[:cl.occ]
		cl.ids = cl.ids[:cl.occ]
	}
	r.planBuf = plan

	r.rebuilds++
	tel := r.cfg.Telemetry
	var t0, copyMark int64
	if tel != nil {
		t0 = telemetry.Now()
		copyMark = r.space.MoveNanos()
	}
	if !r.nullRec {
		r.rec.Record(trace.Event{
			Kind: trace.KFlushStart, From: int64(len(r.classes)), Volume: r.vol,
		})
	}
	var moved int64
	if len(plan) > 0 {
		var emit func(addrspace.MoveResult)
		if !r.nullRec {
			emit = r.emitMove
		}
		sess, err := r.space.BeginMoves(plan, 0, order)
		if err == nil {
			_, moved, err = sess.Advance(math.MaxInt64, emit)
		}
		if err != nil {
			return fmt.Errorf("fcs: rebuild: %w", err)
		}
	}
	r.allocEnd = cursor
	if !r.nullRec {
		r.rec.Record(trace.Event{Kind: trace.KFlushEnd, Size: moved})
	}
	if tel != nil {
		// A rebuild is an atomic flush: one chunk, no stall. Its FlushCopy
		// is the session's timed move loop, present only when there are
		// real bytes to copy.
		el := telemetry.Now() - t0
		tel.FlushDuration.Record(el)
		tel.FlushMoved.Record(moved)
		tel.FlushChunk.Record(moved)
		if r.space.HasData() {
			tel.FlushCopy.Record(r.space.MoveNanos() - copyMark)
		}
		tel.BytesMoved.Store(r.space.Data().Counters().BytesMoved)
		if !r.nullRec {
			r.rec.Record(trace.Event{
				Kind: trace.KFlushSpan, ID: 1, Size: moved, To: el,
				Footprint: r.space.MaxEnd(), Volume: r.vol,
			})
		}
	}
	return nil
}

// emitMove records one rebuild move with the footprint the session
// observed right after it (MaxEnd is off limits inside the callback).
func (r *Reallocator) emitMove(m addrspace.MoveResult) {
	r.rec.Record(trace.Event{
		Kind: trace.KMove, ID: int64(m.ID), Size: m.Size, From: m.From, To: m.To,
		Footprint: m.Footprint, Volume: r.vol,
	})
}

// maybeCheck runs CheckInvariants when Paranoid is set.
func (r *Reallocator) maybeCheck() error {
	if !r.cfg.Paranoid {
		return nil
	}
	return r.CheckInvariants()
}

// CheckInvariants validates the full structure: the substrate, the slot
// geometry and its ascending order, each occupant's extent and class tag,
// the prefix invariant, and the footprint budget.
func (r *Reallocator) CheckInvariants() error {
	if err := r.space.Verify(); err != nil {
		return err
	}
	if v := r.space.Volume(); v != r.vol {
		return fmt.Errorf("fcs: volume drift: bookkeeping %d, substrate %d", r.vol, v)
	}
	live := 0
	type interval struct{ start, end int64 }
	var slots []interval
	for c := range r.classes {
		cl := &r.classes[c]
		cap := r.caps[c]
		if cl.occ > len(cl.starts) {
			return fmt.Errorf("fcs: class %d: occ %d exceeds %d slots", c, cl.occ, len(cl.starts))
		}
		for j := 1; j < len(cl.starts); j++ {
			if cl.starts[j] <= cl.starts[j-1] {
				return fmt.Errorf("fcs: class %d slot starts out of order: slot %d at %d, slot %d at %d", c, j-1, cl.starts[j-1], j, cl.starts[j])
			}
		}
		for j, start := range cl.starts {
			if start < 0 || start+cap > r.allocEnd {
				return fmt.Errorf("fcs: class %d slot %d [%d,%d) outside frontier %d", c, j, start, start+cap, r.allocEnd)
			}
			slots = append(slots, interval{start, start + cap})
			if j >= cl.occ {
				continue
			}
			live++
			id := cl.ids[j]
			ext, tag, ok := r.space.Lookup(id)
			if !ok {
				return fmt.Errorf("fcs: class %d slot %d holds unknown id %d", c, j, id)
			}
			if int(tag) != c {
				return fmt.Errorf("fcs: object %d in class %d slot %d carries tag %d", id, c, j, tag)
			}
			if ext.Size > cap || (c > 0 && ext.Size <= r.caps[c-1]) {
				return fmt.Errorf("fcs: object %d size %d misclassified into class %d (cap %d)", id, ext.Size, c, cap)
			}
			if ext.Start != start {
				return fmt.Errorf("fcs: object %d extent %v disagrees with slot start %d", id, ext, start)
			}
		}
	}
	if n := r.space.Len(); live != n {
		return fmt.Errorf("fcs: slots list %d objects, substrate holds %d", live, n)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i].start < slots[j].start })
	for i := 1; i < len(slots); i++ {
		if slots[i].start < slots[i-1].end {
			return fmt.Errorf("fcs: slots overlap: [..,%d) and [%d,..)", slots[i-1].end, slots[i].start)
		}
	}
	if r.overLimit() {
		return fmt.Errorf("fcs: frontier %d exceeds (1+%v)·%d", r.allocEnd, r.cfg.Epsilon, r.vol)
	}
	if f := r.space.MaxEnd(); f > r.allocEnd {
		return fmt.Errorf("fcs: footprint %d beyond frontier %d", f, r.allocEnd)
	}
	return nil
}
