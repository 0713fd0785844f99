package main

import (
	"realloc/internal/arena"
	"realloc/internal/faultfs"
)

// timedArena is the replay's view of the arena layer: it forwards every
// call to the workload's real backend and times copies, growth and
// syncs. Growth is detected by mirroring the backend's own capacity
// policy, so it can be timed as a call of its own before the copy that
// needs it.
type timedArena struct {
	arena.Backend
	t     *tracer
	empty int64 // calibrated empty-span reading, taken off every copy
	// capMirror is the address at which the backend grows next.
	capMirror int64
	st        *arenaStats
}

// arenaStats is what the timed arenas of one replay measured; the
// shards of a sharded replay share one.
type arenaStats struct {
	grows         int64
	growNS        int64
	copies, bytes int64
	// fit regresses each traced copy's time, net of the empty-span
	// reading, on its byte count: f(w) = a + w/b.
	fit linFit
}

// filePage is the file arena's mapping granularity (internal/arena).
const filePage = 1 << 12

func newTimedArena(inner arena.Backend, t *tracer, empty int64, st *arenaStats) *timedArena {
	a := &timedArena{Backend: inner, t: t, empty: empty, st: st}
	if inner.Kind() == arena.File {
		a.capMirror = filePage // Create maps one page up front
	}
	return a
}

// grow runs the backend's growth to cover end as its own timed call when
// the mirrored policy says the next access would grow the store.
func (a *timedArena) grow(end int64) {
	if end <= a.capMirror {
		return
	}
	next := 2 * a.capMirror
	if next < end {
		next = end
	}
	if a.Kind() == arena.File {
		next = (next + filePage - 1) &^ (filePage - 1)
	}
	t0 := now()
	a.Backend.Ensure(end)
	t1 := now()
	a.capMirror = next
	a.st.grows++
	a.st.growNS += t1 - t0
	a.t.leaf(spArenaGrow, t0, t1)
}

func (a *timedArena) Ensure(n int64) {
	a.grow(n)
	a.Backend.Ensure(n)
}

func (a *timedArena) Bytes(start, size int64) []byte {
	a.grow(start + size)
	return a.Backend.Bytes(start, size)
}

// copyStride: one traced copy in copyStride is timed, the others run
// bare and are only counted. Timing every copy would add two clock reads
// to each, as much as a small copy costs, and the engine spans around
// them would carry that much instrumentation to calibrate away.
const copyStride = 8

func (a *timedArena) Copy(dst, src, size int64) {
	end := dst
	if src > end {
		end = src
	}
	a.grow(end + size)
	if !a.t.on {
		a.Backend.Copy(dst, src, size)
		return
	}
	a.st.copies++
	a.st.bytes += size
	if a.st.copies%copyStride != 0 {
		a.Backend.Copy(dst, src, size)
		a.t.mergeCopy(size, 0, false)
		return
	}
	t0 := now()
	a.Backend.Copy(dst, src, size)
	d := now() - t0
	a.st.fit.add(float64(size), float64(d-a.empty))
	a.t.mergeCopy(size, d, true)
}

func (a *timedArena) Sync() error {
	t0 := now()
	err := a.Backend.Sync()
	a.t.leaf(spArenaSync, t0, now())
	return err
}

// timedFile is the WAL's file with its writes and fsyncs timed.
type timedFile struct {
	faultfs.File
	t      *tracer
	fsyncs int64
}

func (f *timedFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := now()
	n, err := f.File.WriteAt(p, off)
	f.t.leaf(spWALWrite, t0, now())
	return n, err
}

func (f *timedFile) Sync() error {
	t0 := now()
	err := f.File.Sync()
	f.t.leaf(spWALFsync, t0, now())
	f.fsyncs++
	return err
}
