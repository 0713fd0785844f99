package addrspace

import (
	"bytes"
	"testing"

	"realloc/internal/arena"
)

// fuzzBytes reads a fuzz input one byte at a time, yielding zeros once it
// runs out.
type fuzzBytes []byte

func (f *fuzzBytes) next() byte {
	if len(*f) == 0 {
		return 0
	}
	c := (*f)[0]
	*f = (*f)[1:]
	return c
}

// FuzzMoveSession drives a move session and the per-move reference path
// through the same flush-shaped plan on twin heap spaces. The input picks
// the rule set, object sizes and gaps, which objects are deleted first,
// the suffix the plan is bound to, which parked objects hop a second time,
// and, per chunk, the budget (0: the whole remainder) and whether an
// emitter observes it. After every chunk the consumed entries, moved
// volume, MoveResults (when observed), stats, layout and payload bytes
// must match the reference, and the session's space must verify.
func FuzzMoveSession(f *testing.F) {
	f.Add([]byte{0, 12, 3, 1, 2, 0, 0, 5, 0xff, 0})
	f.Add([]byte{1, 30, 9, 2, 1, 3, 3, 0, 1, 0x85, 4, 0x83, 0x02, 0})
	f.Add([]byte{1, 40, 0, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 0x81, 0x81, 0x01, 0x81, 0x01})
	f.Add([]byte{0, 5, 1, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		opts := RAM()
		if in.next()&1 == 1 {
			opts = Durable()
		}
		n := 2 + int(in.next()%40)
		sizes := make([]int64, n)
		gaps := make([]int64, n)
		dead := make([]bool, n)
		for i := range sizes {
			c := in.next()
			sizes[i] = 1 + int64(c&15)
			gaps[i] = int64(c >> 4 & 3)
			dead[i] = c&0x40 != 0 && i%3 == 0
		}
		build := func() (*Space, map[ID]int64) {
			s := newDataSpace(t, opts, arena.Heap)
			live := map[ID]int64{}
			pos := int64(0)
			for i := range sizes {
				id := ID(i + 1)
				pos += gaps[i]
				if err := s.Place(id, Extent{Start: pos, Size: sizes[i]}); err != nil {
					t.Fatal(err)
				}
				if err := s.WriteData(id, pattern(id, sizes[i])); err != nil {
					t.Fatal(err)
				}
				live[id] = sizes[i]
				pos += sizes[i]
			}
			for i, d := range dead {
				if d {
					if err := s.Remove(ID(i + 1)); err != nil {
						t.Fatal(err)
					}
					delete(live, ID(i+1))
				}
			}
			return s, live
		}
		s, live := build()
		mirror, _ := build()

		// The plan: bound to the suffix from the k-th survivor (or from
		// the end of the one before it, so packing closes the gap), park
		// every suffix object past the frontier, send some on to a second
		// staging area, then pack them leftward from the suffix start.
		// Leading objects with no gap pack back onto their origin.
		var ids []ID
		var exts []Extent
		s.ForEach(func(id ID, ext Extent) {
			ids = append(ids, id)
			exts = append(exts, ext)
		})
		if len(ids) == 0 {
			return
		}
		c := in.next()
		k := int(c&0x7f) % len(ids)
		from := exts[k].Start
		if c&0x80 != 0 {
			from = 0
			if k > 0 {
				from = exts[k-1].End()
			}
		}
		suffix := ids[k:]
		var suffixVol int64
		for _, ext := range exts[k:] {
			suffixVol += ext.Size
		}
		var plan []Relocation
		park := s.MaxEnd() + suffixVol
		for _, id := range suffix {
			plan = append(plan, Relocation{ID: id, To: park})
			park += live[id]
		}
		hops := in.next()
		for i, id := range suffix {
			if hops>>(i%8)&1 == 1 {
				plan = append(plan, Relocation{ID: id, To: park})
				park += live[id]
			}
		}
		pack := from
		for _, id := range suffix {
			plan = append(plan, Relocation{ID: id, To: pack})
			pack += live[id]
		}
		plan = ranked(s, from, plan)

		sess, err := begin(s, plan, from)
		if err != nil {
			t.Fatalf("BeginMoves: %v", err)
		}
		for next := 0; !sess.Done(); {
			c := in.next()
			budget := int64(c & 0x7f)
			if budget == 0 {
				budget = 1 << 40
			}
			var got applyRecorder
			var emit func(MoveResult)
			if c&0x80 != 0 {
				emit = got.add
			}
			consumed, vol, err := sess.Advance(budget, emit)
			if err != nil {
				t.Fatalf("at %d: Advance: %v", next, err)
			}
			wantConsumed, wantVol, want := applySerial(t, mirror, plan[next:], budget)
			if consumed != wantConsumed || vol != wantVol {
				t.Fatalf("at %d: consumed/vol %d/%d, serial %d/%d", next, consumed, vol, wantConsumed, wantVol)
			}
			if emit != nil {
				if len(got) != len(want) {
					t.Fatalf("at %d: %d results vs %d serial", next, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("at %d: result %d differs:\n session %+v\n serial  %+v", next, i, got[i], want[i])
					}
				}
			}
			next += consumed
			if err := s.Verify(); err != nil {
				t.Fatalf("at %d: verify: %v", next, err)
			}
			if s.Moves() != mirror.Moves() || s.Checkpoints() != mirror.Checkpoints() ||
				s.BlockedWrites() != mirror.BlockedWrites() || s.FreedVolume() != mirror.FreedVolume() ||
				s.MaxEnd() != mirror.MaxEnd() {
				t.Fatalf("at %d: stats diverge: moves %d/%d ckpts %d/%d blocked %d/%d freed %d/%d maxend %d/%d",
					next, s.Moves(), mirror.Moves(), s.Checkpoints(), mirror.Checkpoints(),
					s.BlockedWrites(), mirror.BlockedWrites(), s.FreedVolume(), mirror.FreedVolume(),
					s.MaxEnd(), mirror.MaxEnd())
			}
			for id := range live {
				ext, _ := s.Extent(id)
				if want, _ := mirror.Extent(id); want != ext {
					t.Fatalf("at %d: object %d at %v, serial at %v", next, id, ext, want)
				}
				if got, _ := s.DataBytes(id); !bytes.Equal(got, pattern(id, ext.Size)) {
					t.Fatalf("at %d: object %d at %v holds %v", next, id, ext, got)
				}
			}
		}
	})
}
