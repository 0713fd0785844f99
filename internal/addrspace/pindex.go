package addrspace

import (
	"fmt"
	"sort"
)

// pindex is the address-ordered placement index: a two-level sorted
// container (a directory of bounded blocks) whose concatenation is the
// sorted-by-start sequence of all live placements.
//
// A flat sorted slice pays O(n) memmove per insert and remove — the
// dominant cost of buffered inserts and deletes once a single structure
// holds ~10^6 cells. Blocks cap that at O(blockCap) per mutation plus a
// directory probe, while keeping ordered scans and predecessor queries as
// cheap as before. The flush executor bypasses per-entry mutation
// entirely: it flattens the affected suffix, merges it with the move
// plan's final layout, and splices the result back in (replaceSuffix).
type pindex struct {
	blocks  [][]placement // each non-empty, sorted; concatenation sorted
	count   int
	pool    [][]placement // retired block storage for reuse
	scratch []placement   // insertRuns block-rebuild scratch
	gen     uint64        // bumped on every content mutation (staleness checks)
}

// blockCap is the target block size: blocks split at 2*blockCap entries.
// 128 keeps the per-mutation memmove around 3 KB worst case while the
// directory stays small enough (n/128 headers) for cheap splices.
const blockCap = 128

// pos addresses one entry: blocks[b][i].
type pos struct {
	b, i int
}

// len returns the number of entries.
func (x *pindex) len() int { return x.count }

// last returns the final entry; callers check len first.
func (x *pindex) last() placement {
	blk := x.blocks[len(x.blocks)-1]
	return blk[len(blk)-1]
}

// at returns the entry at p.
func (x *pindex) at(p pos) placement { return x.blocks[p.b][p.i] }

// end reports the one-past-the-end position.
func (x *pindex) end() pos { return pos{b: len(x.blocks), i: 0} }

// valid reports whether p addresses an entry (not end).
func (x *pindex) valid(p pos) bool { return p.b < len(x.blocks) }

// next advances p by one entry.
func (x *pindex) next(p pos) pos {
	p.i++
	if p.i >= len(x.blocks[p.b]) {
		return pos{b: p.b + 1}
	}
	return p
}

// prev steps p back by one entry; ok is false at the beginning.
func (x *pindex) prev(p pos) (pos, bool) {
	if p.i > 0 {
		return pos{b: p.b, i: p.i - 1}, true
	}
	if p.b == 0 {
		return pos{}, false
	}
	return pos{b: p.b - 1, i: len(x.blocks[p.b-1]) - 1}, true
}

// lowerBound returns the position of the first entry with Start >= start
// (end() if none).
func (x *pindex) lowerBound(start int64) pos {
	// First block whose last entry reaches start, i.e. the block that
	// would contain it: directory probe on block minimums.
	b := sort.Search(len(x.blocks), func(i int) bool {
		blk := x.blocks[i]
		return blk[len(blk)-1].ext.Start >= start
	})
	if b == len(x.blocks) {
		return x.end()
	}
	blk := x.blocks[b]
	i := sort.Search(len(blk), func(j int) bool { return blk[j].ext.Start >= start })
	return pos{b: b, i: i}
}

// takeBlock returns an empty block with room for 2*blockCap entries.
func (x *pindex) takeBlock() []placement {
	if n := len(x.pool); n > 0 {
		blk := x.pool[n-1]
		x.pool = x.pool[:n-1]
		return blk[:0]
	}
	return make([]placement, 0, 2*blockCap)
}

// insert adds p, keeping order. Entries' starts are unique, so ties cannot
// occur.
func (x *pindex) insert(p placement) {
	x.count++
	x.gen++
	if len(x.blocks) == 0 {
		blk := x.takeBlock()
		x.blocks = append(x.blocks, append(blk, p))
		return
	}
	// Block to host p: the one whose range covers it, i.e. the last block
	// whose first entry is <= p (new minima go to block 0).
	b := sort.Search(len(x.blocks), func(i int) bool {
		return x.blocks[i][0].ext.Start > p.ext.Start
	})
	if b > 0 {
		b--
	}
	blk := x.blocks[b]
	i := sort.Search(len(blk), func(j int) bool { return blk[j].ext.Start >= p.ext.Start })
	blk = append(blk, placement{})
	copy(blk[i+1:], blk[i:])
	blk[i] = p
	x.blocks[b] = blk
	if len(blk) == cap(blk) {
		x.split(b)
	}
}

// split divides block b in two.
func (x *pindex) split(b int) {
	blk := x.blocks[b]
	half := len(blk) / 2
	right := append(x.takeBlock(), blk[half:]...)
	x.blocks[b] = blk[:half]
	x.blocks = append(x.blocks, nil)
	copy(x.blocks[b+2:], x.blocks[b+1:])
	x.blocks[b+1] = right
}

// removeAt deletes the entry at p; empty blocks leave the directory.
func (x *pindex) removeAt(p pos) {
	x.count--
	x.gen++
	blk := x.blocks[p.b]
	copy(blk[p.i:], blk[p.i+1:])
	blk = blk[:len(blk)-1]
	x.blocks[p.b] = blk
	if len(blk) == 0 {
		x.pool = append(x.pool, blk)
		copy(x.blocks[p.b:], x.blocks[p.b+1:])
		x.blocks = x.blocks[:len(x.blocks)-1]
	}
}

// find resolves the position of id, known to live at ext. Live starts are
// unique, so the exact search either lands on the entry or the index and
// the id table have desynced — a corrupted structure no defensive walk
// should paper over, so it panics.
func (x *pindex) find(id ID, ext Extent) pos {
	p := x.lowerBound(ext.Start)
	if !x.valid(p) || x.at(p).id != id || x.at(p).ext != ext {
		panic(fmt.Sprintf("addrspace: index desync: object %d at %v not found", id, ext))
	}
	return p
}

// forEach visits entries in address order.
func (x *pindex) forEach(fn func(p placement)) {
	for _, blk := range x.blocks {
		for _, p := range blk {
			fn(p)
		}
	}
}

// forEachPtr visits entries in address order by pointer, for edits that
// leave starts unchanged (the id table rebuild rewriting slots).
func (x *pindex) forEachPtr(fn func(p *placement)) {
	for _, blk := range x.blocks {
		for i := range blk {
			fn(&blk[i])
		}
	}
}

// forEachFrom calls fn with the id, extent and tag of each entry from p
// to the end, in address order.
func (x *pindex) forEachFrom(p pos, fn func(id ID, ext Extent, tag int32)) {
	for b, i := p.b, p.i; b < len(x.blocks); b, i = b+1, 0 {
		for _, e := range x.blocks[b][i:] {
			fn(e.id, e.ext, e.tag)
		}
	}
}

// flattenFrom appends the entries from p to the end onto dst.
func (x *pindex) flattenFrom(p pos, dst []placement) []placement {
	if !x.valid(p) {
		return dst
	}
	dst = append(dst, x.blocks[p.b][p.i:]...)
	for b := p.b + 1; b < len(x.blocks); b++ {
		dst = append(dst, x.blocks[b]...)
	}
	return dst
}

// replaceSuffix substitutes everything from p on with ents (sorted, same
// address range), reusing retired blocks. A move session's whole-plan
// chunk calls this once instead of mutating entry by entry.
func (x *pindex) replaceSuffix(p pos, ents []placement) {
	x.gen++
	removed := 0
	if x.valid(p) {
		blk := x.blocks[p.b]
		removed += len(blk) - p.i
		x.blocks[p.b] = blk[:p.i]
		for b := p.b + 1; b < len(x.blocks); b++ {
			removed += len(x.blocks[b])
			x.pool = append(x.pool, x.blocks[b])
		}
		keep := p.b + 1
		if p.i == 0 {
			x.pool = append(x.pool, x.blocks[p.b])
			keep = p.b
		}
		x.blocks = x.blocks[:keep]
	}
	x.count += len(ents) - removed
	for off := 0; off < len(ents); off += blockCap {
		end := off + blockCap
		if end > len(ents) {
			end = len(ents)
		}
		x.blocks = append(x.blocks, append(x.takeBlock(), ents[off:end]...))
	}
}

// removeStarts deletes the entries whose starts are listed in dels
// (ascending, each present — a missing start is an index desync and
// panics, like find). Each affected block compacts in one pass and empty
// blocks leave the directory in one splice, so a chunk of k deletions
// costs O(k + affected blocks · B + directory) instead of k tail
// memmoves.
func (x *pindex) removeStarts(dels []int64) {
	if len(dels) == 0 {
		return
	}
	x.gen++
	x.count -= len(dels)
	i := 0
	b := sort.Search(len(x.blocks), func(j int) bool {
		blk := x.blocks[j]
		return blk[len(blk)-1].ext.Start >= dels[0]
	})
	firstHole := -1
	for i < len(dels) {
		if b >= len(x.blocks) {
			panic(fmt.Sprintf("addrspace: index desync: entry with start %d not found", dels[i]))
		}
		blk := x.blocks[b]
		if blk[len(blk)-1].ext.Start < dels[i] {
			b++
			continue
		}
		w := sort.Search(len(blk), func(j int) bool { return blk[j].ext.Start >= dels[i] })
		r := w
		for r < len(blk) && i < len(dels) {
			if blk[r].ext.Start == dels[i] {
				i++
				r++
				continue
			}
			if dels[i] < blk[r].ext.Start {
				panic(fmt.Sprintf("addrspace: index desync: entry with start %d not found", dels[i]))
			}
			blk[w] = blk[r]
			w++
			r++
		}
		w += copy(blk[w:], blk[r:])
		x.blocks[b] = blk[:w]
		if w == 0 && firstHole < 0 {
			firstHole = b
		}
		b++
	}
	if firstHole >= 0 {
		out := firstHole
		for b := firstHole; b < len(x.blocks); b++ {
			if len(x.blocks[b]) == 0 {
				x.pool = append(x.pool, x.blocks[b])
				continue
			}
			x.blocks[out] = x.blocks[b]
			out++
		}
		x.blocks = x.blocks[:out]
	}
}

// insertRuns splices ins (sorted by start) into the index, validating
// every entry against its final neighbors: any overlap or duplicate start
// returns ErrOverlap. Each maximal run landing between two adjacent
// existing entries splices as one block edit (or block rebuild), so a
// chunk of k insertions clustered in r runs costs O(k + r·(B + log n))
// instead of k searches and tail memmoves.
func (x *pindex) insertRuns(ins []placement) error {
	if len(ins) == 0 {
		return nil
	}
	x.gen++
	for j := 0; j < len(ins); {
		if len(x.blocks) == 0 {
			for q := j; q+1 < len(ins); q++ {
				if ins[q].ext.End() > ins[q+1].ext.Start {
					return fmt.Errorf("%w: chunk lands %d at %v over %d at %v",
						ErrOverlap, ins[q+1].id, ins[q+1].ext, ins[q].id, ins[q].ext)
				}
			}
			for off := j; off < len(ins); off += blockCap {
				end := min(off+blockCap, len(ins))
				x.blocks = append(x.blocks, append(x.takeBlock(), ins[off:end]...))
				x.count += end - off
			}
			return nil
		}
		// Host block: the last one whose first entry is <= the run head
		// (new minima go to block 0), as in insert.
		b := sort.Search(len(x.blocks), func(k int) bool {
			return x.blocks[k][0].ext.Start > ins[j].ext.Start
		})
		if b > 0 {
			b--
		}
		blk := x.blocks[b]
		i := sort.Search(len(blk), func(k int) bool { return blk[k].ext.Start >= ins[j].ext.Start })
		var succ placement
		haveSucc := false
		if i < len(blk) {
			succ, haveSucc = blk[i], true
		} else if b+1 < len(x.blocks) {
			succ, haveSucc = x.blocks[b+1][0], true
		}
		k := j + 1
		for k < len(ins) && (!haveSucc || ins[k].ext.Start < succ.ext.Start) {
			k++
		}
		run := ins[j:k]
		if i > 0 {
			if p := blk[i-1]; p.ext.End() > run[0].ext.Start {
				return fmt.Errorf("%w: chunk lands %d at %v over %d at %v",
					ErrOverlap, run[0].id, run[0].ext, p.id, p.ext)
			}
		}
		for q := 0; q+1 < len(run); q++ {
			if run[q].ext.End() > run[q+1].ext.Start {
				return fmt.Errorf("%w: chunk lands %d at %v over %d at %v",
					ErrOverlap, run[q+1].id, run[q+1].ext, run[q].id, run[q].ext)
			}
		}
		if haveSucc && (run[0].ext.Start == succ.ext.Start || run[len(run)-1].ext.End() > succ.ext.Start) {
			return fmt.Errorf("%w: chunk lands %d at %v over %d at %v",
				ErrOverlap, run[len(run)-1].id, run[len(run)-1].ext, succ.id, succ.ext)
		}
		if len(blk)+len(run) <= cap(blk) {
			blk = blk[:len(blk)+len(run)]
			copy(blk[i+len(run):], blk[i:])
			copy(blk[i:], run)
			x.blocks[b] = blk
			if len(blk) == cap(blk) {
				x.split(b)
			}
		} else {
			// The run outgrows the block: rebuild it as a sequence of
			// blockCap-sized blocks spliced into the directory.
			x.scratch = append(append(append(x.scratch[:0], blk[:i]...), run...), blk[i:]...)
			x.pool = append(x.pool, blk)
			nb := (len(x.scratch) + blockCap - 1) / blockCap
			for t := 1; t < nb; t++ {
				x.blocks = append(x.blocks, nil)
			}
			copy(x.blocks[b+nb:], x.blocks[b+1:])
			off := 0
			for t := 0; t < nb; t++ {
				end := min(off+blockCap, len(x.scratch))
				x.blocks[b+t] = append(x.takeBlock(), x.scratch[off:end]...)
				off = end
			}
		}
		x.count += len(run)
		j = k
	}
	return nil
}

// verify checks the container invariants: non-empty blocks, global order,
// and an accurate count.
func (x *pindex) verify() error {
	total := 0
	var prev placement
	havePrev := false
	for bi, blk := range x.blocks {
		if len(blk) == 0 {
			return fmt.Errorf("addrspace: index block %d is empty", bi)
		}
		for _, p := range blk {
			if havePrev && prev.ext.Start >= p.ext.Start {
				return fmt.Errorf("addrspace: index entries out of order (%v then %v)", prev.ext, p.ext)
			}
			prev, havePrev = p, true
			total++
		}
	}
	if total != x.count {
		return fmt.Errorf("addrspace: index count %d, actual %d", x.count, total)
	}
	return nil
}
