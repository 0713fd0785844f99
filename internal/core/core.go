package core

import (
	"errors"
	"fmt"
	"math"

	"realloc/internal/addrspace"
	"realloc/internal/arena"
	"realloc/internal/telemetry"
	"realloc/internal/trace"
)

// ID identifies an object; it is the caller's handle (the paper's "name").
type ID = addrspace.ID

// Variant selects which of the paper's algorithms the reallocator runs.
type Variant int

const (
	// Amortized is the Section 2 algorithm: atomic flushes, memmove-style
	// moves, no checkpoint model.
	Amortized Variant = iota
	// Checkpointed is the Section 3.2 algorithm: strictly nonoverlapping
	// moves under the checkpoint rule, O(1/ε) checkpoints per flush.
	Checkpointed
	// Deamortized is the Section 3.3 algorithm: Checkpointed plus a tail
	// buffer and an update log that spread each flush across subsequent
	// requests, capping per-request reallocation at (4/ε')·w + ∆ volume.
	Deamortized
)

func (v Variant) String() string {
	switch v {
	case Amortized:
		return "amortized"
	case Checkpointed:
		return "checkpointed"
	case Deamortized:
		return "deamortized"
	default:
		return "unknown"
	}
}

// Config parameterizes a Reallocator.
type Config struct {
	// Epsilon is the footprint slack target: the structure occupies at
	// most (1+Epsilon)·V space after every completed request. Must be in
	// (0, 1]. The paper states results for (0, 1/2].
	Epsilon float64
	// EpsPrime overrides the internal buffer fraction ε'. Zero picks
	// Epsilon/4 (Amortized, Checkpointed) or Epsilon/6 (Deamortized, whose
	// tail buffer consumes a second ε' of slack), which keeps the
	// steady-state structure within (1+Epsilon)·V for all Epsilon <= 1.
	EpsPrime float64
	// Variant selects the algorithm; the zero value is Amortized.
	Variant Variant
	// Recorder receives the event stream; nil means trace.Null.
	Recorder trace.Recorder
	// TrackCells enables per-cell data stamps in the substrate (needed by
	// data-integrity and crash-recovery tests).
	TrackCells bool
	// Paranoid re-validates every structural invariant after each request
	// and makes violations return errors. Tests set it; benchmarks don't.
	Paranoid bool
	// Telemetry, when non-nil, receives wall-clock timing: flush
	// duration/stall/chunk/moved histograms and the checkpoint counter.
	// Nil (the default) keeps every timing site a single branch — the
	// core never reads a clock unless someone is listening.
	Telemetry *telemetry.Set
	// Arena is the payload backend relocations execute against. Nil
	// defaults to the metered backend: moves are counted, not paid.
	Arena arena.Backend
}

// Errors returned by Reallocator operations.
var (
	ErrBadSize   = errors.New("core: object size must be >= 1")
	ErrBadID     = errors.New("core: object id must be non-zero")
	ErrDuplicate = errors.New("core: object already exists")
	ErrNotFound  = errors.New("core: no such object")
	ErrEpsilon   = errors.New("core: epsilon must be in (0, 1]")
)

// placeKind says where an object currently lives in the structure.
type placeKind uint8

const (
	inLimbo    placeKind = iota // created but not yet physically placed
	inPayload                   // a payload segment
	inBuffer                    // a size-class buffer segment (or the tail buffer)
	inOverflow                  // parked in the overflow segment mid-flush
	inLog                       // inserted during an active flush, not yet drained
)

// object is the engine's record of a live object. Its physical position
// lives in the address space, and its place lives in records.places.
type object struct {
	id    ID
	size  int64
	class int
	// tag is the record's fixed position in the engine's record pages; the
	// object's substrate index entry carries it (see records).
	tag int32
	// For an object inBuffer: which buffer (bufClass, tailBuffer for the
	// tail) and the index of its item entry, so a delete can convert the
	// entry to a dummy in place.
	bufClass int
	bufIdx   int
	// For an object inLog: index of the log entry, so a delete during the
	// same flush can annihilate the pair.
	logIdx int
	// deletePending marks objects whose delete request is sitting in the
	// log (the object stays active until the drain applies it).
	deletePending bool
}

// recPageBits sizes the record pages: 1024 records each.
const recPageBits = 10

// records holds the engine's object records in fixed-size pages; a
// record's tag is its page and slot. The tag rides on the object's
// substrate index entry and id table entry, so a flush walking the index
// resolves records without hashing, and a point operation resolves them
// with the substrate's one id probe (Space.Lookup). Pages never move, so
// *object pointers stay valid for a record's lifetime; removed records'
// tags are reused.
//
// Each tag's place is kept apart from its record, one byte per tag in
// places, and nowhere else. A flush's suffix walk learns everything else
// it needs from the index entry (id, extent, and so the class), so it
// streams the index and this byte slice and never loads a record. The
// extent alone cannot stand in for the place: a Section 3 trigger sits at
// the old footprint, which can lie inside the last region's payload range
// when that payload ends in holes.
type records struct {
	pages  []*[1 << recPageBits]object
	places []placeKind // by tag; inLimbo for free tags
	free   []int32
	used   int32 // tags below used have been handed out
}

// take returns a zeroed record with its tag set.
func (t *records) take() *object {
	var tag int32
	if n := len(t.free); n > 0 {
		tag = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		tag = t.used
		t.used++
		t.places = append(t.places, inLimbo)
		if int(tag>>recPageBits) == len(t.pages) {
			t.pages = append(t.pages, new([1 << recPageBits]object))
		}
	}
	o := t.at(tag)
	o.tag = tag
	return o
}

// at returns the record with the given tag.
func (t *records) at(tag int32) *object {
	return &t.pages[tag>>recPageBits][tag&(1<<recPageBits-1)]
}

// place returns where the object with the given tag lives.
func (t *records) place(tag int32) placeKind { return t.places[tag] }

// setPlace records where the object with the given tag lives.
func (t *records) setPlace(tag int32, p placeKind) { t.places[tag] = p }

// put releases a record whose object has been fully removed. Annihilated
// log entries may still point at it; they are dead and never
// dereferenced.
func (t *records) put(o *object) {
	tag := o.tag
	*o = object{tag: tag}
	t.places[tag] = inLimbo
	t.free = append(t.free, tag)
}

// tailBuffer is the sentinel bufClass for objects parked in the tail
// buffer of the deamortized variant.
const tailBuffer = -2

// bufItem is one entry of a buffer segment: a buffered object (id != 0) or
// a dummy delete record (id == 0). Both consume size cells of the buffer's
// capacity; dummy cells are never written.
type bufItem struct {
	id    ID
	size  int64
	class int
}

// region is one size class's area: a payload segment then a buffer
// segment.
type region struct {
	class    int
	payStart int64
	paySize  int64 // class volume at this region's last flush (or creation)
	payLive  int64 // live volume currently in the payload (paySize - holes)
	bufSize  int64 // buffer capacity
	bufFill  int64 // consumed buffer capacity (objects + dummies)
	items    []bufItem
	// cursor is assignSlots' next free payload position, and next first
	// counts the region's flushed objects (flushedObjects) and then is
	// assignSlots' next final-order index, while the region is part of a
	// layout plan under construction; both are meaningless after.
	cursor int64
	next   int
}

func (r *region) bufStart() int64 { return r.payStart + r.paySize }
func (r *region) end() int64      { return r.payStart + r.paySize + r.bufSize }

// tail is the deamortized variant's tail buffer: a class-unrestricted
// buffer following all regions.
type tail struct {
	start int64
	cap   int64
	fill  int64
	items []bufItem
}

func (t *tail) end() int64 { return t.start + t.cap }

// Reallocator is the engine implementing all three variants.
type Reallocator struct {
	cfg Config
	eps float64 // ε'

	space *addrspace.Space
	rec   trace.Recorder
	// nullRec marks a discard-everything recorder: batch execution then
	// skips per-move footprint reconstruction entirely (the event stream
	// has no audience; state evolution is identical either way).
	nullRec bool

	recs    records   // object records; index entries carry their tags
	regions []*region // ascending class order
	tailBuf *tail     // Deamortized only

	vol        int64 // total live volume V
	volByClass [numClasses]int64
	delta      int64 // largest object size ever inserted (the paper's ∆)

	flushes int64

	// tel mirrors cfg.Telemetry (kept as a field so hot paths pay one
	// pointer test); stalling marks that the current advanceQuota work is
	// being performed by an op that did not trigger the flush, so chunk
	// time is attributed to stall as well as to the flush's duration;
	// opStall accumulates the stalled op's timed slices across plans.
	tel      *telemetry.Set
	stalling bool
	opStall  int64
	// copyMark is the substrate's cumulative move-loop time at the start
	// of the flush in progress; the delta at flush end is that flush's
	// FlushCopy observation. copyTimed says whether there is one: the
	// backend holds real bytes, so the move sessions time their loops.
	copyMark  int64
	copyTimed bool
	// serialFlush runs flush plans through applyPlanSerial, the per-move
	// reference path, instead of a move session. Only the differential
	// tests set it; both paths produce identical event streams, layouts,
	// and stats.
	serialFlush bool

	// Deamortized state: the plan of an in-progress flush and the update
	// log absorbing requests that arrive while it runs.
	plan *flushPlan
	log  updateLog
	// dirty marks rare placements outside the canonical contiguous layout
	// (tail overflow, new max class mid-flush); cleared by the next flush.
	dirty bool

	// Flush scratch, reused so steady-state flushes allocate nothing: the
	// move plan under construction (handed to flushPlan, which retires
	// before the next flush starts), its final order, the address-ordered
	// payload/buffered planning arrays, the flushed class list, the next
	// layout's region slice, and a pool of retired region records.
	planBuf    []addrspace.Relocation
	orderBuf   []int32
	payBuf     []flushObj
	bufBuf     []flushObj
	classBuf   []int
	regionBuf  []*region
	regionPool []*region
}

// New creates a Reallocator. It validates Config and chooses the substrate
// rules the variant requires.
func New(cfg Config) (*Reallocator, error) {
	if cfg.Epsilon <= 0 || cfg.Epsilon > 1 {
		return nil, fmt.Errorf("%w: got %v", ErrEpsilon, cfg.Epsilon)
	}
	eps := cfg.EpsPrime
	if eps == 0 {
		if cfg.Variant == Deamortized {
			eps = cfg.Epsilon / 6
		} else {
			eps = cfg.Epsilon / 4
		}
	}
	if eps <= 0 || eps > 0.5 {
		return nil, fmt.Errorf("%w: eps' %v out of (0, 0.5]", ErrEpsilon, eps)
	}
	var opts addrspace.Options
	if cfg.Variant == Amortized {
		opts = addrspace.RAM()
	} else {
		opts = addrspace.Durable()
	}
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
	r := &Reallocator{
		cfg:     cfg,
		eps:     eps,
		space:   addrspace.New(opts),
		rec:     rec,
		nullRec: nullRec,
		tel:     cfg.Telemetry,
	}
	r.copyTimed = r.tel != nil && r.space.HasData()
	if cfg.Variant == Deamortized {
		r.tailBuf = &tail{}
	}
	return r, nil
}

// MustNew is New for tests and examples with known-good configs.
func MustNew(cfg Config) *Reallocator {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Volume returns the total size of live objects (deleted objects stop
// counting when their delete request completes; deletes logged during an
// active flush complete at drain time).
func (r *Reallocator) Volume() int64 { return r.vol }

// Footprint returns the largest allocated address: the quantity the
// paper's competitive ratio bounds.
func (r *Reallocator) Footprint() int64 { return r.space.MaxEnd() }

// StructSize returns the end of the bookkeeping structure: the last
// region's (or tail buffer's) end, counting holes and empty buffer space.
// This is the conservative quantity Lemma 2.5 bounds. Mid-flush it also
// covers the working space actually in use.
func (r *Reallocator) StructSize() int64 {
	end := int64(0)
	if n := len(r.regions); n > 0 {
		end = r.regions[n-1].end()
	}
	if r.tailBuf != nil && r.tailBuf.end() > end {
		end = r.tailBuf.end()
	}
	if m := r.space.MaxEnd(); m > end {
		end = m
	}
	return end
}

// Delta returns the largest object size seen so far (the paper's ∆).
func (r *Reallocator) Delta() int64 { return r.delta }

// Len returns the number of live objects.
func (r *Reallocator) Len() int { return r.space.Len() }

// Flushes returns how many buffer flushes have been triggered.
func (r *Reallocator) Flushes() int64 { return r.flushes }

// FlushActive reports whether a deamortized flush is in progress.
func (r *Reallocator) FlushActive() bool { return r.plan != nil }

// Epsilon returns the configured footprint slack target.
func (r *Reallocator) Epsilon() float64 { return r.cfg.Epsilon }

// EpsPrime returns the internal buffer fraction ε'.
func (r *Reallocator) EpsPrime() float64 { return r.eps }

// Space exposes the substrate for integration (BTL) and tests.
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

// Extent returns the current physical extent of id. Objects are always
// physically placed, including mid-flush and while sitting in the log.
func (r *Reallocator) Extent(id ID) (addrspace.Extent, bool) {
	return r.space.Extent(id)
}

// Has reports whether id is live from the caller's side. A delete logged
// during an active flush is done as far as the caller is concerned, so
// Has reports false at once, while Len and Volume keep counting the
// object until the drain applies the delete.
func (r *Reallocator) Has(id ID) bool {
	o, ok := r.record(id)
	return ok && !o.deletePending
}

// SizeOf returns the size of object id.
func (r *Reallocator) SizeOf(id ID) (int64, bool) {
	ext, ok := r.space.Extent(id)
	return ext.Size, ok
}

// record returns id's record, resolved through the tag on its index
// entry. Every object is placed from insert to delete, except a Section 2
// flush trigger inside its own Insert.
func (r *Reallocator) record(id ID) (*object, bool) {
	_, tag, ok := r.space.Lookup(id)
	if !ok {
		return nil, false
	}
	return r.recs.at(tag), true
}

// ForEach visits every live object in address order.
func (r *Reallocator) ForEach(fn func(id ID, ext addrspace.Extent)) {
	r.space.ForEach(fn)
}

// Drain completes any in-progress deamortized flush. Other variants are
// always drained.
func (r *Reallocator) Drain() error {
	for r.plan != nil {
		if err := r.advance(math.MaxInt64 / 4); err != nil {
			return err
		}
	}
	return nil
}

// workQuota is the flush work (by volume) a size-w request must perform in
// the deamortized variant: just over (4/ε')·w.
func (r *Reallocator) workQuota(w int64) int64 {
	q := math.Ceil(4 / r.eps * float64(w))
	if q > math.MaxInt64/4 {
		return math.MaxInt64 / 4
	}
	return int64(q)
}

// emit sends an event to the recorder, filling in footprint and volume.
func (r *Reallocator) emit(kind trace.Kind, id ID, size, from, to int64) {
	r.emitAt(kind, id, size, from, to, r.space.MaxEnd())
}

// emitAt is emit with an explicit footprint, for events observed mid-batch
// when the substrate's index has not been rebuilt yet.
func (r *Reallocator) emitAt(kind trace.Kind, id ID, size, from, to, footprint int64) {
	r.rec.Record(trace.Event{
		Kind: kind, ID: int64(id), Size: size, From: from, To: to,
		Footprint: footprint, Volume: r.vol,
	})
}

// emitPlanMove relays one batched relocation to the recorder with the same
// event sequence the per-move path produces: a checkpoint event if the
// move blocked, then the move itself.
func (r *Reallocator) emitPlanMove(m addrspace.MoveResult) {
	if m.Checkpointed {
		r.emitAt(trace.KCheckpoint, 0, 0, 0, 0, m.PreFootprint)
	}
	r.emitAt(trace.KMove, m.ID, m.Size, m.From, m.To, m.Footprint)
}

// advanceSession executes the next chunk, at most q volume (overshooting
// by at most one move), of a flush plan's move session, relaying every
// move to the recorder. Paranoid mode re-verifies the substrate after
// every chunk, cross-checking the session's index rebuild.
func (r *Reallocator) advanceSession(sess *addrspace.MoveSession, q int64) (int, int64, error) {
	n, vol, err := sess.Advance(q, r.planEmitter())
	if err == nil && r.cfg.Paranoid {
		err = r.space.Verify()
	}
	return n, vol, err
}

// planEmitter returns the batched-relocation observer relaying MoveResults
// to the recorder, or nil for a discard-everything recorder (executors
// then skip footprint reconstruction entirely).
func (r *Reallocator) planEmitter() func(addrspace.MoveResult) {
	if r.nullRec {
		return nil
	}
	return r.emitPlanMove
}

// applyPlanSerial is the per-move reference path for a flush plan: one
// entry at a time through Move while the applied volume stays below
// budget, transparently blocking on checkpoints.
func (r *Reallocator) applyPlanSerial(moves []addrspace.Relocation, budget int64) (int, int64, error) {
	var vol int64
	for i, m := range moves {
		if vol >= budget {
			return i, vol, nil
		}
		moved, err := r.moveCkpt(m.ID, m.To)
		if err != nil {
			return i + 1, vol, err
		}
		if moved {
			size, _ := r.SizeOf(m.ID)
			vol += size
		}
	}
	return len(moves), vol, nil
}

// emitOpEnd closes a request.
func (r *Reallocator) emitOpEnd() {
	structSize := int64(0)
	if r.plan == nil && !r.dirty {
		structSize = r.StructSize()
	}
	r.rec.Record(trace.Event{
		Kind: trace.KOpEnd, From: structSize,
		Footprint: r.space.MaxEnd(), Volume: r.vol,
	})
}

// maxRegionClass returns the largest class with a region, or -1.
func (r *Reallocator) maxRegionClass() int {
	if len(r.regions) == 0 {
		return -1
	}
	return r.regions[len(r.regions)-1].class
}

// regionIndex returns the index of class c's region.
func (r *Reallocator) regionIndex(c int) (int, bool) {
	lo, hi := 0, len(r.regions)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.regions[mid].class < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.regions) && r.regions[lo].class == c {
		return lo, true
	}
	return lo, false
}

// bufCap returns ⌊ε'·v⌋, the buffer capacity for payload volume v.
func (r *Reallocator) bufCap(v int64) int64 {
	return int64(r.eps * float64(v))
}

// syncCheckpoints republishes the substrate's authoritative checkpoint
// count into the telemetry set. It runs where checkpoints can have
// advanced (blocked placements/moves, flush completion) rather than per
// move: the substrate already counts, telemetry only mirrors.
func (r *Reallocator) syncCheckpoints() {
	if r.tel != nil {
		r.tel.Checkpoints.Store(r.space.Checkpoints())
		r.tel.BytesMoved.Store(r.space.Data().Counters().BytesMoved)
	}
}

// markCopy snapshots the substrate's cumulative move-loop time at flush
// start; recordCopy turns the delta into the flush's FlushCopy
// observation. Both are single branches when there is nothing to time
// (telemetry off or no real bytes), so a metered run records no FlushCopy
// at all rather than a row of zeros.
func (r *Reallocator) markCopy() {
	if r.copyTimed {
		r.copyMark = r.space.MoveNanos()
	}
}

func (r *Reallocator) recordCopy() {
	if r.copyTimed {
		r.tel.FlushCopy.Record(r.space.MoveNanos() - r.copyMark)
	}
}

// moveCkpt relocates an object, transparently blocking on (triggering and
// counting) checkpoints when the target intersects freed-since-checkpoint
// space. A move to the current position is a no-op; the boolean reports
// whether the object actually moved.
func (r *Reallocator) moveCkpt(id ID, to int64) (bool, error) {
	old, ok := r.space.Extent(id)
	if !ok {
		return false, fmt.Errorf("%w: move of %d", ErrNotFound, id)
	}
	if old.Start == to {
		return false, nil
	}
	for {
		err := r.space.Move(id, to)
		if err == nil {
			r.emit(trace.KMove, id, old.Size, old.Start, to)
			return true, nil
		}
		if errors.Is(err, addrspace.ErrWouldBlock) {
			r.space.Checkpoint()
			r.syncCheckpoints()
			r.emit(trace.KCheckpoint, 0, 0, 0, 0)
			continue
		}
		return false, err
	}
}

// moveObj is moveCkpt for an object record.
func (r *Reallocator) moveObj(o *object, to int64) (bool, error) {
	return r.moveCkpt(o.id, to)
}

// placeCkpt writes a new object at ext, tagging its index entry with the
// object's record, and blocks on checkpoints like moveCkpt. It emits the
// KInsert event (initial allocation).
func (r *Reallocator) placeCkpt(o *object, ext addrspace.Extent) error {
	for {
		err := r.space.PlaceTagged(o.id, ext, o.tag)
		if err == nil {
			r.emit(trace.KInsert, o.id, ext.Size, 0, ext.Start)
			return nil
		}
		if errors.Is(err, addrspace.ErrWouldBlock) {
			r.space.Checkpoint()
			r.syncCheckpoints()
			r.emit(trace.KCheckpoint, 0, 0, 0, 0)
			continue
		}
		return err
	}
}
