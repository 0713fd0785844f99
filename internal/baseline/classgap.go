package baseline

import (
	"fmt"
	"sort"

	"realloc/internal/addrspace"
	"realloc/internal/trace"
)

// ClassGap reconstructs the size-class reallocator of Bender, Fekete,
// Kamphans and Schweer (2009) as sketched in the paper's Section 2
// intuition: object sizes round up to powers of two; blocks of equal-class
// objects are kept in ascending class order; inserting into a full class
// displaces the first object of the next nonempty class and recursively
// reinserts it. The per-unit-volume displacement costs form a geometric
// series, giving O(1) amortized reallocation under unit cost — but a
// single insert can move one object of every larger class, which is why
// the strategy is only Θ(log ∆)-competitive under linear cost.
//
// The 2009 paper is not public here; deletions (move-last-into-hole plus a
// footprint-triggered compaction) are our reconstruction and are
// documented as such in DESIGN.md.
type ClassGap struct {
	base
	blocks   map[int]*cgBlock
	classes  []int // sorted classes with nonempty blocks
	meta     map[addrspace.ID]cgMeta
	padVol   int64 // live volume after rounding to powers of two
	compacts int64
	// Threshold triggers compaction at footprint > Threshold*padVol; 0
	// means 2.
	Threshold float64
}

type cgMeta struct {
	class int
	seq   int64 // index within the block, offset by the block's popped count
}

type cgBlock struct {
	class  int
	start  int64
	ids    []addrspace.ID
	popped int64 // number of popFront operations, for stable seq numbers
}

func (b *cgBlock) slot() int64 { return int64(1) << uint(b.class) }
func (b *cgBlock) end() int64  { return b.start + int64(len(b.ids))*b.slot() }

// posOf returns the slot start of the i-th object.
func (b *cgBlock) posOf(i int) int64 { return b.start + int64(i)*b.slot() }

// NewClassGap returns an empty ClassGap allocator.
func NewClassGap(rec trace.Recorder) *ClassGap {
	return &ClassGap{
		base:      newBase(rec),
		blocks:    make(map[int]*cgBlock),
		meta:      make(map[addrspace.ID]cgMeta),
		Threshold: 2,
	}
}

// Name implements Allocator.
func (c *ClassGap) Name() string { return "classgap" }

// Compactions returns how many full compactions have run.
func (c *ClassGap) Compactions() int64 { return c.compacts }

// Insert places the object in its padded size class.
func (c *ClassGap) Insert(id addrspace.ID, size int64) error {
	k := orderFor(size)
	if err := c.makeRoom(k); err != nil {
		return err
	}
	blk := c.block(k)
	pos := blk.end()
	if err := c.place(id, addrspace.Extent{Start: pos, Size: size}); err != nil {
		return err
	}
	c.meta[id] = cgMeta{class: k, seq: int64(len(blk.ids)) + blk.popped}
	blk.ids = append(blk.ids, id)
	c.padVol += blk.slot()
	if err := c.maybeCompact(); err != nil {
		return err
	}
	c.emitOpEnd()
	return nil
}

// Delete fills the hole with the block's last object (one move) and may
// trigger a compaction.
func (c *ClassGap) Delete(id addrspace.ID) error {
	m, ok := c.meta[id]
	if !ok {
		return fmt.Errorf("classgap: delete of unknown object %d", id)
	}
	blk := c.blocks[m.class]
	i := int(m.seq - blk.popped)
	if i < 0 || i >= len(blk.ids) || blk.ids[i] != id {
		return fmt.Errorf("classgap: index desync for object %d", id)
	}
	if _, err := c.remove(id); err != nil {
		return err
	}
	delete(c.meta, id)
	c.padVol -= blk.slot()
	last := len(blk.ids) - 1
	if i != last {
		moved := blk.ids[last]
		if err := c.move(moved, blk.posOf(i)); err != nil {
			return err
		}
		blk.ids[i] = moved
		mm := c.meta[moved]
		mm.seq = int64(i) + blk.popped
		c.meta[moved] = mm
	}
	blk.ids = blk.ids[:last]
	if len(blk.ids) == 0 {
		c.dropClass(m.class)
	}
	if err := c.maybeCompact(); err != nil {
		return err
	}
	c.emitOpEnd()
	return nil
}

// block returns (creating if needed) the class-k block; a new block starts
// at the end of the last nonempty block of a smaller class.
func (c *ClassGap) block(k int) *cgBlock {
	if blk, ok := c.blocks[k]; ok {
		return blk
	}
	start := int64(0)
	for _, cl := range c.classes {
		if cl < k {
			start = c.blocks[cl].end()
		}
	}
	blk := &cgBlock{class: k, start: start}
	c.blocks[k] = blk
	i := sort.SearchInts(c.classes, k)
	c.classes = append(c.classes, 0)
	copy(c.classes[i+1:], c.classes[i:])
	c.classes[i] = k
	return blk
}

// dropClass removes an empty block.
func (c *ClassGap) dropClass(k int) {
	delete(c.blocks, k)
	i := sort.SearchInts(c.classes, k)
	if i < len(c.classes) && c.classes[i] == k {
		c.classes = append(c.classes[:i], c.classes[i+1:]...)
	}
}

// nextNonempty returns the smallest class > k with a block.
func (c *ClassGap) nextNonempty(k int) (*cgBlock, bool) {
	i := sort.SearchInts(c.classes, k+1)
	if i < len(c.classes) {
		return c.blocks[c.classes[i]], true
	}
	return nil, false
}

// makeRoom guarantees a free slot after block k's end, displacing the
// first object of the next nonempty class (and recursively reinserting it
// into its own class) when the corridor is too tight.
func (c *ClassGap) makeRoom(k int) error {
	blk := c.block(k)
	next, ok := c.nextNonempty(k)
	if !ok {
		return nil // open corridor to infinity
	}
	if next.start-blk.end() >= blk.slot() {
		return nil
	}
	// Displace the first object of the next nonempty block.
	victim := next.ids[0]
	next.ids = next.ids[1:]
	next.popped++
	next.start += next.slot()
	if err := c.appendTo(next.class, victim); err != nil {
		return err
	}
	if next.start-blk.end() < blk.slot() {
		return fmt.Errorf("classgap: displacement of class %d freed insufficient room for class %d", next.class, k)
	}
	return nil
}

// appendTo reinserts a displaced object at the end of its class block,
// recursively making room first.
func (c *ClassGap) appendTo(k int, id addrspace.ID) error {
	if err := c.makeRoom(k); err != nil {
		return err
	}
	blk := c.block(k)
	if err := c.move(id, blk.end()); err != nil {
		return err
	}
	c.meta[id] = cgMeta{class: k, seq: int64(len(blk.ids)) + blk.popped}
	blk.ids = append(blk.ids, id)
	return nil
}

// maybeCompact packs all blocks contiguously from 0 when the footprint
// exceeds Threshold times the padded volume.
func (c *ClassGap) maybeCompact() error {
	thr := c.Threshold
	if thr == 0 {
		thr = 2
	}
	end := int64(0)
	for _, cl := range c.classes {
		if e := c.blocks[cl].end(); e > end {
			end = e
		}
	}
	if c.padVol == 0 || float64(end) < thr*float64(c.padVol) {
		return nil
	}
	c.compacts++
	pos := int64(0)
	for _, cl := range c.classes {
		blk := c.blocks[cl]
		blk.start = pos
		for i, id := range blk.ids {
			if err := c.move(id, blk.posOf(i)); err != nil {
				return err
			}
		}
		pos = blk.end()
	}
	return nil
}
