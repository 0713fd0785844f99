package main

import (
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"realloc/internal/workload"
)

// Op kinds of the in-memory workloads' streams.
const (
	opRead uint8 = iota
	opInsert
	opDelete
)

// churnOp is one request of an in-memory workload's stream.
type churnOp struct {
	kind uint8
	id   int64
	size int64
}

// churnModel is one client's model of its live objects. The generator
// decides every op from it and the model applies the op at once, so a
// seed fixes the whole stream — the replay regenerates it instead of
// recording it. Ids are base+k for k = 0, 1, 2, ...; per-id state lives
// in slices indexed by k, reserved up front so the timed phase allocates
// nothing.
type churnModel struct {
	rng    *rand.Rand
	sizes  workload.SizeDist
	target int64
	base   int64

	vol  int64
	live []int64 // live ids
	pos  []int32 // k -> index in live, -1 once deleted
	size []int32 // k -> object size
	sum  []uint64
}

func newChurnModel(seed uint64, client int, sizes workload.SizeDist, target int64, base int64, reserve int) *churnModel {
	return &churnModel{
		rng:    newRNG(seed, client),
		sizes:  sizes,
		target: target,
		base:   base,
		live:   make([]int64, 0, reserve),
		pos:    make([]int32, 0, reserve),
		size:   make([]int32, 0, reserve),
		sum:    make([]uint64, 0, reserve),
	}
}

// reserve grows the per-id slices so that n more inserts need no
// allocation.
func (m *churnModel) reserve(n int) {
	need := len(m.pos) + n
	if cap(m.pos) >= need {
		return
	}
	grow := func(s []int32) []int32 { t := make([]int32, len(s), need); copy(t, s); return t }
	m.pos, m.size = grow(m.pos), grow(m.size)
	sum := make([]uint64, len(m.sum), need)
	copy(sum, m.sum)
	m.sum = sum
	if cap(m.live) < need {
		live := make([]int64, len(m.live), need)
		copy(live, m.live)
		m.live = live
	}
}

func (m *churnModel) k(id int64) int64 { return id - m.base }

// sizeOf returns a live object's size.
func (m *churnModel) sizeOf(id int64) int64 { return int64(m.size[m.k(id)]) }

// insert creates the next object.
func (m *churnModel) insert() churnOp {
	id := m.base + int64(len(m.pos))
	sz := m.sizes.Draw(m.rng)
	m.pos = append(m.pos, int32(len(m.live)))
	m.size = append(m.size, int32(sz))
	m.sum = append(m.sum, 0)
	m.live = append(m.live, id)
	m.vol += sz
	return churnOp{kind: opInsert, id: id, size: sz}
}

// remove deletes a uniformly chosen live object.
func (m *churnModel) remove() churnOp {
	j := m.rng.IntN(len(m.live))
	id := m.live[j]
	last := m.live[len(m.live)-1]
	m.live[j] = last
	m.pos[m.k(last)] = int32(j)
	m.live = m.live[:len(m.live)-1]
	m.pos[m.k(id)] = -1
	sz := m.sizeOf(id)
	m.vol -= sz
	return churnOp{kind: opDelete, id: id, size: sz}
}

// fill returns the next set-up insert, or false once the live volume
// has reached the target.
func (m *churnModel) fill() (churnOp, bool) {
	if m.vol >= m.target {
		return churnOp{}, false
	}
	return m.insert(), true
}

// write returns the next write: an insert while the live volume is at or
// below the target, else a delete — holding the volume level.
func (m *churnModel) write() churnOp {
	if m.vol <= m.target || len(m.live) == 0 {
		return m.insert()
	}
	return m.remove()
}

// step returns the next op of a read/write mix.
func (m *churnModel) step(readPct int) churnOp {
	if m.rng.IntN(100) < readPct && len(m.live) > 0 {
		id := m.live[m.rng.IntN(len(m.live))]
		return churnOp{kind: opRead, id: id, size: m.sizeOf(id)}
	}
	return m.write()
}

// releaseMemory returns a discarded structure's memory to the OS before
// the next set-up, so repeated set-ups do not stack in the peak RSS.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// totalAlloc returns the bytes the Go heap has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 { return procStatusMB("VmHWM:") }

// rssAfterGCMB returns the resident set once a full collection has run
// and freed memory has gone back to the OS: the memory the program holds,
// without the collector's slack, which depends on where a cycle falls.
func rssAfterGCMB() float64 {
	releaseMemory()
	return procStatusMB("VmRSS:")
}

// procStatusMB reads one kB field of /proc/self/status in MB.
func procStatusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS restarts the resident-set high-water mark at the current
// resident size (Linux clear_refs 5), so each set-up and the timed phase
// get a peak of their own. Where the kernel refuses, the mark just keeps
// running.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

func secs(ns int64) float64 { return float64(ns) / 1e9 }
