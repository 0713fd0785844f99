package addrspace

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"testing"

	"realloc/internal/arena"
)

// overlapSpaces builds two RAM spaces over heap arenas with one history:
// tagged objects of 1 B to 64 KiB at random gaps, each holding random
// bytes, a few removed. It returns both, every survivor's payload, and a
// flush-shaped plan bound to the suffix from the survivors' first quarter
// on: a no-op step, then every suffix object parked past the frontier and
// packed leftward from from. The plan moves more than overlapMinVolume.
func overlapSpaces(t *testing.T, seed uint64) (a, b *Space, payloads map[ID][]byte, plan []Relocation, from int64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x0f1a))
	const n = 96
	payloads = map[ID][]byte{}
	starts := make([]int64, n+1)
	var word [8]byte
	pos := int64(0)
	for id := ID(1); id <= n; id++ {
		pos += rng.Int64N(512)
		starts[id] = pos
		p := make([]byte, 1+rng.IntN(64<<10))
		for i := 0; i < len(p); i += 8 {
			binary.LittleEndian.PutUint64(word[:], rng.Uint64())
			copy(p[i:], word[:])
		}
		payloads[id] = p
		pos += int64(len(p))
	}
	for id := ID(5); id <= n; id += 9 {
		delete(payloads, id)
	}
	build := func() *Space {
		opts := RAM()
		data, err := arena.New(arena.Heap)
		if err != nil {
			t.Fatal(err)
		}
		opts.Data = data
		s := New(opts)
		for id := ID(1); id <= n; id++ {
			p := payloads[id]
			size := int64(len(p))
			if p == nil {
				size = 7 // removed below
			}
			if err := s.PlaceTagged(id, Extent{Start: starts[id], Size: size}, tagOf(id)); err != nil {
				t.Fatal(err)
			}
			if p != nil {
				if err := s.WriteData(id, p); err != nil {
					t.Fatal(err)
				}
			} else if err := s.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	a, b = build(), build()

	var suffix []Extent
	var ids []ID
	a.ForEach(func(id ID, ext Extent) {
		ids = append(ids, id)
		suffix = append(suffix, ext)
	})
	first := len(ids) / 4
	from = suffix[first].Start
	ids, suffix = ids[first:], suffix[first:]
	plan = append(plan, Relocation{ID: ids[0], To: suffix[0].Start})
	park := a.MaxEnd() + 4096
	for i, id := range ids {
		plan = append(plan, Relocation{ID: id, To: park})
		park += suffix[i].Size
	}
	pack := from
	for i, id := range ids {
		plan = append(plan, Relocation{ID: id, To: pack})
		pack += suffix[i].Size
	}
	return a, b, payloads, ranked(a, from, plan), from
}

// TestOverlappedCommit runs one whole plan above overlapMinVolume on two
// identical heap spaces: without an emitter, so its copies run on a
// second goroutine while the caller commits the index, and through a
// no-op emitter, which runs them serially. Both must end identical —
// arena bytes over [0, MaxEnd), tagged index, move count, backend
// counters — with Verify clean, every payload intact and MoveNanos
// advanced. A closed backend panics with arena.ErrClosed on the caller's
// goroutine on both paths.
func TestOverlappedCommit(t *testing.T) {
	noop := func(MoveResult) {}
	for _, seed := range []uint64{1, 2, 3} {
		overlapped, serial, payloads, plan, from := overlapSpaces(t, seed)
		for _, run := range []struct {
			s    *Space
			emit func(MoveResult)
		}{{overlapped, nil}, {serial, noop}} {
			ms, err := begin(run.s, plan, from)
			if err != nil {
				t.Fatal(err)
			}
			if ms.total < overlapMinVolume {
				t.Fatalf("seed %d: plan moves %d, below the overlap threshold %d", seed, ms.total, overlapMinVolume)
			}
			total := ms.total
			if _, vol, err := ms.Advance(total, run.emit); err != nil || vol != total || !ms.Done() {
				t.Fatalf("seed %d: Advance moved %d of %d (done %v): %v", seed, vol, total, ms.Done(), err)
			}
			if err := run.s.Verify(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if run.s.MoveNanos() <= 0 {
				t.Fatalf("seed %d: MoveNanos = %d after a heap whole-plan chunk", seed, run.s.MoveNanos())
			}
			for id, p := range payloads {
				got, _ := run.s.DataBytes(id)
				if !bytes.Equal(got, p) {
					t.Fatalf("seed %d (emit %v): object %d payload corrupted", seed, run.emit != nil, id)
				}
			}
		}
		if end := overlapped.MaxEnd(); end != serial.MaxEnd() ||
			!bytes.Equal(overlapped.Data().View(0, end), serial.Data().View(0, end)) {
			t.Fatalf("seed %d: arena bytes differ over [0, %d)", seed, end)
		}
		if !slices.Equal(taggedEntries(overlapped), taggedEntries(serial)) {
			t.Fatalf("seed %d: tagged index differs", seed)
		}
		if overlapped.Moves() != serial.Moves() {
			t.Fatalf("seed %d: Moves %d overlapped, %d serial", seed, overlapped.Moves(), serial.Moves())
		}
		if oc, sc := overlapped.Data().Counters(), serial.Data().Counters(); oc != sc {
			t.Fatalf("seed %d: counters %+v overlapped, %+v serial", seed, oc, sc)
		}
	}

	for _, tc := range []struct {
		name string
		emit func(MoveResult)
	}{{"closedOverlapped", nil}, {"closedSerial", noop}} {
		t.Run(tc.name, func(t *testing.T) {
			s, _, _, plan, from := overlapSpaces(t, 4)
			ms, err := begin(s, plan, from)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Data().Close(); err != nil {
				t.Fatal(err)
			}
			if p := advancePanic(ms, tc.emit); p != arena.ErrClosed {
				t.Fatalf("Advance on a closed backend raised %v, want arena.ErrClosed", p)
			}
		})
	}
}

// advancePanic runs ms to the end and returns what it panicked with.
func advancePanic(ms *MoveSession, emit func(MoveResult)) (p any) {
	defer func() { p = recover() }()
	ms.Advance(ms.total, emit)
	return nil
}

// taggedEntry is one index entry as ForEachTagged reports it.
type taggedEntry struct {
	id  ID
	ext Extent
	tag int32
}

// taggedEntries lists s's index in address order.
func taggedEntries(s *Space) []taggedEntry {
	var out []taggedEntry
	s.ForEachTagged(func(id ID, ext Extent, tag int32) { out = append(out, taggedEntry{id, ext, tag}) })
	return out
}
