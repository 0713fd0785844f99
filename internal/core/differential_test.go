package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand/v2"
	"testing"

	"realloc/internal/addrspace"
	"realloc/internal/arena"
	"realloc/internal/trace"
)

// diffOp is one request of a generated differential workload.
type diffOp struct {
	insert bool
	id     ID
	size   int64
}

// diffWorkload generates a random insert/delete churn: grow to roughly
// vol, then churn with uniform victims, with occasional mass-delete bursts
// so flushes trigger from both the insert and the delete path.
func diffWorkload(seed uint64, vol int64, n int) []diffOp {
	rng := rand.New(rand.NewPCG(seed, 0xd1ff))
	var ops []diffOp
	type live struct {
		id   ID
		size int64
	}
	var pop []live
	var cur int64
	next := ID(1)
	for len(ops) < n {
		burst := len(pop) > 8 && rng.IntN(40) == 0
		if burst {
			for k := 0; k < len(pop)/4; k++ {
				i := rng.IntN(len(pop))
				o := pop[i]
				pop[i] = pop[len(pop)-1]
				pop = pop[:len(pop)-1]
				cur -= o.size
				ops = append(ops, diffOp{id: o.id, size: o.size})
			}
			continue
		}
		if cur < vol || len(pop) == 0 || rng.IntN(2) == 0 {
			size := int64(1 + rng.IntN(300))
			ops = append(ops, diffOp{insert: true, id: next, size: size})
			pop = append(pop, live{next, size})
			cur += size
			next++
		} else {
			i := rng.IntN(len(pop))
			o := pop[i]
			pop[i] = pop[len(pop)-1]
			pop = pop[:len(pop)-1]
			cur -= o.size
			ops = append(ops, diffOp{id: o.id, size: o.size})
		}
	}
	return ops
}

// sweepOps is a deterministic Section 2 workload (ε' = 1/2; size 2 is
// class 1, sizes 8–10 class 3) whose last flush holds every shape of
// payload motion. One class-1 object and eight class-3 objects settle
// into two regions; three class-1 inserts then wait in the class-3
// buffer, and deletes of 12 (size 9) and 14 leave two payload holes. The
// size-10 insert that overflows the buffer flushes both classes: the
// class-1 payload grows by 6 and its buffer by 3, shifting the class-3
// payload right by 9, so 10 and 11 form a right-moving run, 13 — just
// past the 9-cell hole — already sits at its slot, and 15, 16 and 17 —
// past the second hole — form a left-moving run.
func sweepOps() []diffOp {
	ops := []diffOp{{insert: true, id: 1, size: 2}}
	for i, size := range []int64{8, 8, 9, 8, 8, 8, 8, 8} {
		ops = append(ops, diffOp{insert: true, id: ID(10 + i), size: size})
	}
	for id := ID(30); id < 33; id++ {
		ops = append(ops, diffOp{insert: true, id: id, size: 2})
	}
	return append(ops, diffOp{id: 12}, diffOp{id: 14}, diffOp{insert: true, id: 40, size: 10})
}

// payloadOf is the payload driveDiff writes for a size-n object id.
func payloadOf(id ID, n int64) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(int64(id)*31 + int64(i))
	}
	return p
}

// driveDiff runs ops through a fresh reallocator built from cfg (Epsilon
// 0.25 unless set), on the per-move reference flush path if serial, and
// returns it and its event log. On a real arena every insert writes
// payloadOf(id).
func driveDiff(t *testing.T, cfg Config, serial bool, ops []diffOp) (*Reallocator, *trace.Log) {
	t.Helper()
	log := &trace.Log{}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 0.25
	}
	cfg.Recorder, cfg.TrackCells, cfg.Paranoid = log, true, true
	r := MustNew(cfg)
	r.serialFlush = serial
	real := r.Data().Kind() != arena.Metered
	for _, op := range ops {
		var err error
		if op.insert {
			err = r.Insert(op.id, op.size)
			if err == nil && real {
				err = r.Write(op.id, payloadOf(op.id, op.size))
			}
		} else {
			err = r.Delete(op.id)
		}
		if err != nil {
			t.Fatalf("%s serial=%v: op %+v: %v", cfg.Variant, serial, op, err)
		}
	}
	return r, log
}

// compareEvents asserts two event streams are identical.
func compareEvents(t *testing.T, name string, blog, slog *trace.Log) {
	t.Helper()
	if len(blog.Events) != len(slog.Events) {
		t.Fatalf("%s: %d batched events vs %d serial", name, len(blog.Events), len(slog.Events))
	}
	for i := range blog.Events {
		if blog.Events[i] != slog.Events[i] {
			t.Fatalf("%s: event %d differs:\n batched %+v\n serial  %+v",
				name, i, blog.Events[i], slog.Events[i])
		}
	}
}

// TestBatchedSerialEquivalence is the differential property test of the
// batched flush executor: identical random workloads driven through the
// batched path and the per-move reference path must produce identical
// event streams (and therefore identical footprint series), final
// layouts, and stats, for every variant and both substrate rule sets.
// One deterministic input (sweepOps) also runs on a heap arena: per-move
// Move rejects any intermediate overlap, so the reference path accepting
// the Section 2 sweep's order, with every payload byte intact, pins the
// sweep's ordering rule.
func TestBatchedSerialEquivalence(t *testing.T) {
	for _, variant := range []Variant{Amortized, Checkpointed, Deamortized} {
		for seed := uint64(1); seed <= 4; seed++ {
			ops := diffWorkload(seed, 4000, 3000)
			batched, blog := driveDiff(t, Config{Variant: variant}, false, ops)
			serial, slog := driveDiff(t, Config{Variant: variant}, true, ops)
			compareEvents(t, fmt.Sprintf("%s seed %d", variant, seed), blog, slog)
			compareDiffState(t, variant, seed, batched, serial)

			// Complete any in-progress deamortized flush on both sides and
			// compare the fully drained states too.
			if err := batched.Drain(); err != nil {
				t.Fatalf("%s seed %d: batched drain: %v", variant, seed, err)
			}
			if err := serial.Drain(); err != nil {
				t.Fatalf("%s seed %d: serial drain: %v", variant, seed, err)
			}
			compareDiffState(t, variant, seed, batched, serial)
		}
	}

	ops := sweepOps()
	var runs [2]*Reallocator
	var logs [2]*trace.Log
	for i, serial := range []bool{false, true} {
		heap, err := arena.New(arena.Heap)
		if err != nil {
			t.Fatal(err)
		}
		runs[i], logs[i] = driveDiff(t, Config{Epsilon: 1, EpsPrime: 0.5, Arena: heap}, serial, ops)
	}
	compareEvents(t, "sweep", logs[0], logs[1])
	compareDiffState(t, Amortized, 0, runs[0], runs[1])
	for _, r := range runs {
		r.ForEach(func(id ID, ext addrspace.Extent) {
			if got, _ := r.Bytes(id); !bytes.Equal(got, payloadOf(id, ext.Size)) {
				t.Fatalf("sweep serial=%v: object %d at %v holds %v", r.serialFlush, id, ext, got)
			}
		})
	}
	// The last flush must still hold all three shapes, or the input no
	// longer exercises the ordering rule.
	last := 0
	for i, e := range logs[0].Events {
		if e.Kind == trace.KFlushStart {
			last = i
		}
	}
	shift := map[int64]int64{}
	for _, e := range logs[0].Events[last:] {
		if e.Kind == trace.KMove {
			shift[e.ID] += e.To - e.From
		}
	}
	for id, want := range map[int64]int{10: 1, 11: 1, 13: 0, 15: -1, 16: -1, 17: -1} {
		if got := cmp.Compare(shift[id], 0); got != want {
			t.Fatalf("sweep: object %d shifted by %d in the last flush, want sign %d", id, shift[id], want)
		}
	}
}

// compareDiffState asserts two reallocators are observably identical:
// layouts, volumes, footprints, and substrate stats.
func compareDiffState(t *testing.T, variant Variant, seed uint64, a, b *Reallocator) {
	t.Helper()
	type placed struct {
		id  ID
		ext addrspace.Extent
	}
	collect := func(r *Reallocator) []placed {
		var out []placed
		r.ForEach(func(id ID, ext addrspace.Extent) { out = append(out, placed{id, ext}) })
		return out
	}
	la, lb := collect(a), collect(b)
	if len(la) != len(lb) {
		t.Fatalf("%s seed %d: layout sizes differ: %d vs %d", variant, seed, len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("%s seed %d: layout entry %d differs: %+v vs %+v", variant, seed, i, la[i], lb[i])
		}
	}
	sa, sb := a.Space(), b.Space()
	stats := [][2]int64{
		{a.Volume(), b.Volume()},
		{a.Footprint(), b.Footprint()},
		{a.StructSize(), b.StructSize()},
		{a.Delta(), b.Delta()},
		{a.Flushes(), b.Flushes()},
		{int64(a.Len()), int64(b.Len())},
		{sa.Moves(), sb.Moves()},
		{sa.Places(), sb.Places()},
		{sa.Checkpoints(), sb.Checkpoints()},
		{sa.BlockedWrites(), sb.BlockedWrites()},
		{sa.FreedVolume(), sb.FreedVolume()},
	}
	names := []string{"volume", "footprint", "structsize", "delta", "flushes", "len",
		"moves", "places", "checkpoints", "blockedwrites", "freedvolume"}
	for i, s := range stats {
		if s[0] != s[1] {
			t.Fatalf("%s seed %d: %s differs: batched %d vs serial %d", variant, seed, names[i], s[0], s[1])
		}
	}
}
