// Package addrspace simulates the flat storage address space that a
// reallocator manages: an arbitrarily large array of cells in which objects
// occupy disjoint extents.
//
// The substrate enforces the physical rules the paper builds on:
//
//   - Objects never overlap one another.
//   - In strict mode (databases, SSDs, FPGAs — Section 1), a moved object's
//     new location must additionally be disjoint from its old location,
//     because object writes are not atomic and the old copy must survive
//     until the new one is complete.
//   - Under the checkpoint rule (Section 3.1), space freed since the last
//     checkpoint may not be rewritten: the durable logical-to-physical map
//     still references it. A write into such space reports ErrWouldBlock and
//     the caller must wait for (trigger and count) a checkpoint.
//
// With cell tracking enabled the substrate also simulates data placement:
// each cell remembers which object's bytes it holds, including ghost copies
// left behind by moves, which is what makes crash-recovery verification in
// the btl package meaningful.
package addrspace

import (
	"errors"
	"fmt"

	"realloc/internal/arena"
)

// ID identifies an object. IDs are assigned by the caller and must be
// non-zero (zero marks free cells in cell-tracking mode).
type ID int64

// Extent is a half-open interval [Start, Start+Size) of cells.
type Extent struct {
	Start int64
	Size  int64
}

// End returns the first address past the extent.
func (e Extent) End() int64 { return e.Start + e.Size }

// Overlaps reports whether two extents intersect.
func (e Extent) Overlaps(o Extent) bool {
	return e.Start < o.End() && o.Start < e.End()
}

func (e Extent) String() string { return fmt.Sprintf("[%d,%d)", e.Start, e.End()) }

// Errors reported by Space operations.
var (
	ErrOverlap       = errors.New("addrspace: extent overlaps a live object")
	ErrSelfOverlap   = errors.New("addrspace: move target overlaps the object's current location (strict mode)")
	ErrWouldBlock    = errors.New("addrspace: target intersects space freed since the last checkpoint")
	ErrUnknownObject = errors.New("addrspace: unknown object")
	ErrDuplicate     = errors.New("addrspace: object already placed")
	ErrBadExtent     = errors.New("addrspace: extent must have Start >= 0 and Size >= 1")
	ErrNoData        = errors.New("addrspace: no real payload backend (see arena.Backend)")
)

// Options configures the physical rules a Space enforces.
type Options struct {
	// StrictNonOverlap forbids a move whose target intersects the object's
	// own current extent. Off, moves have memmove semantics (allowed by
	// Section 2; required off for in-RAM compaction by one cell).
	StrictNonOverlap bool
	// CheckpointRule forbids writing into space freed since the last
	// checkpoint (Section 3.1). Such writes fail with ErrWouldBlock.
	CheckpointRule bool
	// TrackCells maintains a per-cell record of which object's data each
	// cell holds, including stale copies left by moves. Needed only by
	// data-integrity and crash-recovery tests; costs O(max address) memory.
	TrackCells bool
	// Data is the payload backend relocations write through: every
	// applied move memmoves the object's bytes (or, for the metered
	// backend, counts them). Nil means no backend at all — moves touch
	// only the index, and payload access reports ErrNoData.
	Data arena.Backend
}

// RAM returns the permissive configuration used by the Section 2
// reallocator: moves may overlap their own source and freed space is
// immediately reusable.
func RAM() Options { return Options{} }

// Durable returns the database configuration of Section 3: strict
// nonoverlapping moves plus the checkpoint rule.
func Durable() Options { return Options{StrictNonOverlap: true, CheckpointRule: true} }

// placement is one index entry: an object, its extent, the opaque tag its
// owner attached when placing it, and the object's id table slot. Entries
// are kept sorted by Start; moves carry the tag and the slot along. The
// slot fills what would be padding: entries stay 32 bytes.
type placement struct {
	id   ID
	ext  Extent
	tag  int32
	slot int32
}

// Space is a simulated address space. The zero value is not usable; call
// New.
type Space struct {
	opts Options

	ids     idTable // id -> extent and tag; slots recorded in byStart
	byStart pindex  // sorted by ext.Start; extents pairwise disjoint

	data arena.Backend // payload backend, nil for index-only spaces

	freed intervalSet // space freed since last checkpoint (CheckpointRule)

	cells []ID // cell-level data residue, if TrackCells

	batch *batchState // reusable move-plan scratch, allocated on first use

	volume        int64 // total live volume
	checkpoints   int64 // checkpoints taken
	blockedWrites int64 // writes that observed ErrWouldBlock
	moves         int64
	places        int64
	moveNanos     int64 // wall-clock time in move-session chunk loops (real backends)

	// session is the one move session, active while its plan is set. It
	// comes last: placed before the counters, its 88 bytes would split
	// the ones every placement updates across two cache lines.
	session MoveSession
}

// New creates an empty Space with the given rules.
func New(opts Options) *Space {
	return &Space{opts: opts, data: opts.Data}
}

// Options returns the rules this space enforces.
func (s *Space) Options() Options { return s.opts }

// Len returns the number of live objects.
func (s *Space) Len() int { return s.ids.live }

// Volume returns the total size of live objects.
func (s *Space) Volume() int64 { return s.volume }

// MaxEnd returns the footprint: the smallest address such that no live
// object occupies any cell at or beyond it. (Disjointness makes the
// placement with the largest start also the one with the largest end.)
func (s *Space) MaxEnd() int64 {
	if s.byStart.len() == 0 {
		return 0
	}
	return s.byStart.last().ext.End()
}

// Checkpoints returns how many checkpoints have been taken.
func (s *Space) Checkpoints() int64 { return s.checkpoints }

// BlockedWrites returns how many writes found their target in
// freed-since-checkpoint space.
func (s *Space) BlockedWrites() int64 { return s.blockedWrites }

// Moves returns the number of relocations applied: successful Move calls
// and every non-no-op plan step a move session executed.
func (s *Space) Moves() int64 { return s.moves }

// Places returns the number of successful Place calls.
func (s *Space) Places() int64 { return s.places }

// Extent returns the current extent of id.
func (s *Space) Extent(id ID) (Extent, bool) {
	ext, _, ok := s.Lookup(id)
	return ext, ok
}

// Lookup returns the current extent of id and the tag it was placed
// with, in one probe.
func (s *Space) Lookup(id ID) (Extent, int32, bool) {
	slot, ok := s.ids.find(id)
	if !ok {
		return Extent{}, 0, false
	}
	e := &s.ids.ents[slot]
	return e.ext, e.tag, true
}

// ForEach calls fn for every live object in address order.
func (s *Space) ForEach(fn func(id ID, ext Extent)) {
	s.byStart.forEach(func(p placement) { fn(p.id, p.ext) })
}

// ForEachTagged is ForEach also reporting each object's tag.
func (s *Space) ForEachTagged(fn func(id ID, ext Extent, tag int32)) {
	s.byStart.forEach(func(p placement) { fn(p.id, p.ext, p.tag) })
}

// SuffixTags calls fn with the id, extent and tag of each live object
// starting at or after from, in address order: the i-th call names the
// object of rank i in that suffix, the Relocation.Ref a move plan applied
// against from names it by. It is the substrate's one suffix walk. Flush
// planning walks the flushed suffix this way and learns each object's
// id, size and current start from its index entry, and the owner's state
// for it by tag, without looking up ids or making a second walk.
func (s *Space) SuffixTags(from int64, fn func(id ID, ext Extent, tag int32)) {
	s.byStart.forEachFrom(s.byStart.lowerBound(from), fn)
}

// overlapAny reports whether ext overlaps any live object other than skip
// (skip == 0 means none).
func (s *Space) overlapAny(ext Extent, skip ID) (ID, bool) {
	// Any overlapping placement must start before ext.End(); because
	// placements are disjoint, only the one immediately before the lower
	// bound can extend into ext... except for skip, whose exclusion can
	// expose at most one more predecessor. Scan left while candidates can
	// still reach into ext.
	at, ok := s.byStart.prev(s.byStart.lowerBound(ext.End()))
	for ; ok; at, ok = s.byStart.prev(at) {
		p := s.byStart.at(at)
		if p.ext.End() <= ext.Start && p.id != skip {
			// Disjoint placements to the left of this one end even
			// earlier, except skip itself which we may still need to step
			// over; since p != skip and p is clear, everything before is
			// clear too.
			break
		}
		if p.id == skip {
			continue
		}
		if p.ext.Overlaps(ext) {
			return p.id, true
		}
	}
	return 0, false
}

// checkTarget validates a prospective write of ext on behalf of id
// (id == 0 for a fresh placement). selfExt is the object's current extent
// when moving.
func (s *Space) checkTarget(ext Extent, id ID, moving bool, selfExt Extent) error {
	if ext.Start < 0 || ext.Size < 1 {
		return fmt.Errorf("%w: %v", ErrBadExtent, ext)
	}
	if other, ok := s.overlapAny(ext, id); ok {
		return fmt.Errorf("%w: %v hits object %d", ErrOverlap, ext, other)
	}
	if moving && s.opts.StrictNonOverlap && ext.Overlaps(selfExt) {
		return fmt.Errorf("%w: %v vs %v", ErrSelfOverlap, ext, selfExt)
	}
	if s.opts.CheckpointRule {
		// Space the object itself vacates in this very move is freed *by*
		// the move, so only pre-existing freed space blocks. The freed set
		// never contains live extents, so no need to exclude selfExt.
		if s.freed.intersects(ext) {
			s.blockedWrites++
			return fmt.Errorf("%w: %v", ErrWouldBlock, ext)
		}
	}
	return nil
}

// relocatePlacement moves id's entry, tag and slot included, from extent
// old to extent ext. The exact lookup panics on an index desync (see
// pindex.find). Single moves outside flush plans (log drains,
// defragmentation, swap-with-last) take this path; flush plans run
// through a MoveSession.
func (s *Space) relocatePlacement(id ID, old, ext Extent) {
	at := s.byStart.find(id, old)
	p := s.byStart.at(at)
	s.byStart.removeAt(at)
	p.ext = ext
	s.byStart.insert(p)
}

// stampCells writes id into every cell of ext (cell-tracking mode).
func (s *Space) stampCells(ext Extent, id ID) {
	if !s.opts.TrackCells {
		return
	}
	if need := ext.End(); int64(len(s.cells)) < need {
		grown := make([]ID, need+need/2)
		copy(grown, s.cells)
		s.cells = grown
	}
	for i := ext.Start; i < ext.End(); i++ {
		s.cells[i] = id
	}
}

// Place writes a new object at ext with tag 0.
func (s *Space) Place(id ID, ext Extent) error { return s.PlaceTagged(id, ext, 0) }

// PlaceTagged writes a new object at ext. It is the initial allocation;
// the checkpoint rule applies to it exactly as to moves. tag is opaque to
// the substrate: the object's index entry carries it through every move
// until the object is removed (see SuffixTags).
func (s *Space) PlaceTagged(id ID, ext Extent, tag int32) error {
	if id == 0 {
		return fmt.Errorf("addrspace: id must be non-zero")
	}
	slot, dup := s.ids.probe(id)
	if dup {
		return fmt.Errorf("%w: %d", ErrDuplicate, id)
	}
	if err := s.checkTarget(ext, id, false, Extent{}); err != nil {
		return err
	}
	if !s.ids.fits(slot) {
		s.rebuildIDs()
		slot, _ = s.ids.probe(id)
	}
	s.ids.put(slot, idEntry{id: id, ext: ext, tag: tag})
	s.byStart.insert(placement{id: id, ext: ext, tag: tag, slot: slot})
	s.stampCells(ext, id)
	if s.data != nil {
		// Make the extent addressable. Placement does not clear cells:
		// the payload is whatever they held until the caller writes it
		// via WriteData.
		s.data.Ensure(ext.End())
	}
	s.volume += ext.Size
	s.places++
	return nil
}

// Move relocates id so that it starts at newStart. The old extent becomes
// freed-since-checkpoint space under the checkpoint rule; its cells keep
// the object's data (a ghost copy) until something overwrites them.
func (s *Space) Move(id ID, newStart int64) error {
	slot, ok := s.ids.find(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	old := s.ids.ents[slot].ext
	if newStart == old.Start {
		return nil
	}
	ext := Extent{Start: newStart, Size: old.Size}
	if err := s.checkTarget(ext, id, true, old); err != nil {
		return err
	}
	s.relocatePlacement(id, old, ext)
	s.ids.ents[slot].ext = ext
	s.stampCells(ext, id)
	if s.data != nil {
		s.data.Copy(ext.Start, old.Start, old.Size)
	}
	if s.opts.CheckpointRule {
		s.vacate(old, ext) // checkTarget ruled out blocking
	}
	s.moves++
	return nil
}

// vacate applies the checkpoint rule to one relocation from old to
// target. A target in space freed since the last checkpoint counts a
// blocked write and takes (and counts) a checkpoint, reported as true:
// the transparent blocking the per-move path implements by retrying
// Move. Then the part of old that target does not cover is freed: with
// strict nonoverlap all of it, with memmove semantics only the uncovered
// remainder. Every executor calls it under CheckpointRule only, so RAM
// moves pay no call.
func (s *Space) vacate(old, target Extent) (checkpointed bool) {
	if s.freed.intersects(target) {
		s.blockedWrites++
		s.Checkpoint()
		checkpointed = true
	}
	var pieces [2]Extent
	for _, piece := range pieces[:subtract(old, target, &pieces)] {
		s.freed.add(piece)
	}
	return checkpointed
}

// Remove frees the object's space. Under the checkpoint rule the extent
// joins the freed-since-checkpoint set; its cells keep the ghost data.
func (s *Space) Remove(id ID) error {
	slot, ok := s.ids.find(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	old := s.ids.ents[slot].ext
	s.ids.remove(slot)
	s.byStart.removeAt(s.byStart.find(id, old))
	s.volume -= old.Size
	if s.opts.CheckpointRule {
		s.freed.add(old)
	}
	return nil
}

// WouldBlock reports whether writing ext would hit freed-since-checkpoint
// space (without counting it as a blocked write).
func (s *Space) WouldBlock(ext Extent) bool {
	return s.opts.CheckpointRule && s.freed.intersects(ext)
}

// Checkpoint makes all freed space reusable again, modeling the system
// writing the translation map durably (Section 3.1).
func (s *Space) Checkpoint() {
	s.freed.reset()
	s.checkpoints++
}

// FreedVolume returns the volume of space freed since the last checkpoint.
func (s *Space) FreedVolume() int64 { return s.freed.volume() }

// CellOwner returns which object's data cell addr currently holds (ghost
// copies included), or 0 for never-written cells. Requires TrackCells.
func (s *Space) CellOwner(addr int64) ID {
	if addr < 0 || addr >= int64(len(s.cells)) {
		return 0
	}
	return s.cells[addr]
}

// HoldsData reports whether every cell of ext holds id's data (live or
// ghost). Requires TrackCells.
func (s *Space) HoldsData(id ID, ext Extent) bool {
	if !s.opts.TrackCells {
		return false
	}
	if ext.End() > int64(len(s.cells)) {
		return false
	}
	for i := ext.Start; i < ext.End(); i++ {
		if s.cells[i] != id {
			return false
		}
	}
	return true
}

// Verify exhaustively re-checks structural invariants: sortedness,
// pairwise disjointness, id table/index agreement, and volume accounting.
// Tests call it after mutating sequences.
func (s *Space) Verify() error {
	if err := s.byStart.verify(); err != nil {
		return err
	}
	if err := s.verifyIDs(); err != nil {
		return err
	}
	var vol int64
	var verr error
	var prev placement
	havePrev := false
	s.byStart.forEach(func(p placement) {
		if verr != nil {
			return
		}
		if p.ext.Size < 1 || p.ext.Start < 0 {
			verr = fmt.Errorf("addrspace: object %d has bad extent %v", p.id, p.ext)
			return
		}
		if havePrev && prev.ext.End() > p.ext.Start {
			verr = fmt.Errorf("addrspace: objects %d %v and %d %v overlap", prev.id, prev.ext, p.id, p.ext)
			return
		}
		if s.opts.TrackCells && !s.HoldsData(p.id, p.ext) {
			verr = fmt.Errorf("addrspace: object %d data missing at %v", p.id, p.ext)
			return
		}
		prev, havePrev = p, true
		vol += p.ext.Size
	})
	if verr != nil {
		return verr
	}
	if vol != s.volume {
		return fmt.Errorf("addrspace: volume accounting: tracked %d, actual %d", s.volume, vol)
	}
	return s.freed.verify()
}

// subtract computes the parts of a not covered by b, writing them into out
// (sized for the worst case) and returning how many pieces there are. The
// out parameter keeps the move hot path allocation-free.
func subtract(a, b Extent, out *[2]Extent) int {
	if !a.Overlaps(b) {
		out[0] = a
		return 1
	}
	n := 0
	if a.Start < b.Start {
		out[n] = Extent{Start: a.Start, Size: b.Start - a.Start}
		n++
	}
	if a.End() > b.End() {
		out[n] = Extent{Start: b.End(), Size: a.End() - b.End()}
		n++
	}
	return n
}
