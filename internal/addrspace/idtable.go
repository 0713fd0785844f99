package addrspace

import (
	"fmt"
	"math/bits"
)

// idTable is the space's one id lookup structure: an open-addressing hash
// table from each live object's id to its extent and tag, held inline, so
// a point lookup is one probe sequence over one array. The slot count is a
// power of two; an id's home slot is a multiplicative (Fibonacci) hash of
// it, and collisions probe linearly. Removal leaves a tombstone, which a
// later insert on the same probe path reuses. Once live entries plus
// tombstones would pass 3/4 of the slots, the Space rebuilds the table
// from its address index to at most half full (rebuildIDs), so every
// probe sequence ends at an empty slot.
//
// Entries never move between rebuilds, and each index entry records its
// object's slot (placement.slot): the flush commit writes moved extents
// by slot without hashing, and a rebuild rewrites every index entry's
// slot. The slots are 32-bit handles that survive relocation.
type idTable struct {
	ents     []idEntry
	shift    uint8 // 64 - log2(len(ents))
	live     int   // slots holding an object
	tombs    int   // tombstones
	rebuilds int64
}

// idEntry is one 32-byte slot: empty (id 0), a tombstone (id 0, tomb
// set), or a live object with its extent and tag.
type idEntry struct {
	id   ID
	ext  Extent
	tag  int32
	tomb bool
}

// minIDSlots is the smallest table a rebuild allocates.
const minIDSlots = 8

// fibMul is 2^64/φ, the Fibonacci hashing multiplier.
const fibMul = 0x9E3779B97F4A7C15

// home returns id's first probe slot.
func (t *idTable) home(id ID) int {
	return int(uint64(id) * fibMul >> t.shift)
}

// find returns the slot holding id. Zero names no object, and an absent
// id's probe stops at the first empty slot on its path.
func (t *idTable) find(id ID) (int32, bool) {
	if id == 0 || t.live == 0 {
		return 0, false
	}
	mask := len(t.ents) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		e := &t.ents[i]
		if e.id == id {
			return int32(i), true
		}
		if e.id == 0 && !e.tomb {
			return 0, false
		}
	}
}

// probe returns the slot holding id (found), or else the slot an insert
// of id takes: the first tombstone on its probe path, or the empty slot
// that ends the path (slot 0 of an unallocated table, which fits no
// insert). id must be non-zero.
func (t *idTable) probe(id ID) (slot int32, found bool) {
	if len(t.ents) == 0 {
		return 0, false
	}
	mask := len(t.ents) - 1
	free := -1
	for i := t.home(id); ; i = (i + 1) & mask {
		e := &t.ents[i]
		switch {
		case e.id == id:
			return int32(i), true
		case e.id != 0:
		case e.tomb:
			if free < 0 {
				free = i
			}
		default:
			if free < 0 {
				free = i
			}
			return int32(free), false
		}
	}
}

// fits reports whether an insert may take slot (from probe) without a
// rebuild: a reused tombstone always fits, and an empty slot fits while
// live entries plus tombstones stay within 3/4 of the table.
func (t *idTable) fits(slot int32) bool {
	return len(t.ents) > 0 && (t.ents[slot].tomb || 4*(t.live+t.tombs+1) <= 3*len(t.ents))
}

// put stores e at slot, which probe returned for e.id.
func (t *idTable) put(slot int32, e idEntry) {
	if t.ents[slot].tomb {
		t.tombs--
	}
	t.ents[slot] = e
	t.live++
}

// remove turns slot into a tombstone.
func (t *idTable) remove(slot int32) {
	t.ents[slot] = idEntry{tomb: true}
	t.live--
	t.tombs++
}

// setExt records the new extent of id, which an index entry places at
// slot. A slot holding another object means the index and the table have
// desynced: like pindex.find, it panics rather than write a stranger's
// extent.
func (t *idTable) setExt(slot int32, id ID, ext Extent) {
	e := &t.ents[slot]
	if e.id != id {
		panic(fmt.Sprintf("addrspace: id table desync: slot %d holds object %d, not %d", slot, e.id, id))
	}
	e.ext = ext
}

// reset empties the table, sized to hold n entries at most half full.
func (t *idTable) reset(n int) {
	size := minIDSlots
	for size < 2*n {
		size <<= 1
	}
	if len(t.ents) == size {
		clear(t.ents)
	} else {
		t.ents = make([]idEntry, size)
	}
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	t.live, t.tombs = 0, 0
}

// rebuildIDs refills the id table from the address index, sized for one
// object more than is live, and records each object's new slot in its
// index entry. The index generation moves on, so a session's pre-merged
// suffix, whose entries carry the old slots, is known stale.
func (s *Space) rebuildIDs() {
	t := &s.ids
	t.reset(s.byStart.len() + 1)
	s.byStart.forEachPtr(func(p *placement) {
		slot, _ := t.probe(p.id)
		t.put(slot, idEntry{id: p.id, ext: p.ext, tag: p.tag})
		p.slot = slot
	})
	t.rebuilds++
	s.byStart.gen++
}

// slotOf returns the slot of id, which a plan step names and which is
// therefore live; a miss is a desync and panics.
func (s *Space) slotOf(id ID) int32 {
	slot, ok := s.ids.find(id)
	if !ok {
		panic(fmt.Sprintf("addrspace: id table desync: object %d not found", id))
	}
	return slot
}

// IDRebuilds returns how many times the id table has been rebuilt.
func (s *Space) IDRebuilds() int64 { return s.ids.rebuilds }

// verifyIDs checks the id table against the address index: the live and
// tombstone counts match the slots, an empty slot remains, and every
// index entry's slot is where a probe for its id lands and holds the
// entry's extent and tag.
func (s *Space) verifyIDs() error {
	t := &s.ids
	live, tombs := 0, 0
	for _, e := range t.ents {
		switch {
		case e.id != 0:
			live++
		case e.tomb:
			tombs++
		}
	}
	if live != t.live || live != s.byStart.len() {
		return fmt.Errorf("addrspace: id table holds %d objects, counts %d, index has %d", live, t.live, s.byStart.len())
	}
	if tombs != t.tombs {
		return fmt.Errorf("addrspace: id table holds %d tombstones, counts %d", tombs, t.tombs)
	}
	if len(t.ents) > 0 && 4*(live+tombs) > 3*len(t.ents) {
		return fmt.Errorf("addrspace: id table over 3/4 full: %d objects, %d tombstones, %d slots", live, tombs, len(t.ents))
	}
	var err error
	s.byStart.forEach(func(p placement) {
		if err != nil {
			return
		}
		slot, ok := t.find(p.id)
		if !ok || slot != p.slot {
			err = fmt.Errorf("addrspace: object %d's index entry names slot %d, its probe finds %d (found %v)", p.id, p.slot, slot, ok)
			return
		}
		if e := t.ents[slot]; e.ext != p.ext || e.tag != p.tag {
			err = fmt.Errorf("addrspace: object %d: id table has %v tag %d, index %v tag %d", p.id, e.ext, e.tag, p.ext, p.tag)
		}
	})
	return err
}
