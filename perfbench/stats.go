package main

import (
	"math"
	"sort"
)

// latencies holds one kind of per-op latency sample in nanoseconds. The
// buffer is allocated and touched during set-up, so recording a sample in
// the timed phase allocates nothing and the resident size of the buffer
// does not depend on how many samples a run takes.
type latencies struct {
	v []uint32
}

func newLatencies(capacity int) *latencies {
	l := &latencies{v: make([]uint32, capacity)}
	for i := range l.v {
		l.v[i] = 1 // fault the pages in now, not during the timed phase
	}
	l.v = l.v[:0]
	return l
}

// full reports whether another sample would exceed the preallocated
// capacity; the timed phase stops before that happens.
func (l *latencies) full(n int) bool { return len(l.v)+n > cap(l.v) }

// add records one sample, clamping at the uint32 range (4.29 s).
func (l *latencies) add(ns int64) {
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	if ns < 0 {
		ns = 0
	}
	l.v = append(l.v, uint32(ns))
}

// addN records the same sample n times (every op of a batch is charged
// the batch's duration).
func (l *latencies) addN(ns int64, n int) {
	for i := 0; i < n; i++ {
		l.add(ns)
	}
}

// sorted returns the samples of all the given buffers merged and sorted.
func sorted(ls ...*latencies) []int64 {
	n := 0
	for _, l := range ls {
		n += len(l.v)
	}
	out := make([]int64, 0, n)
	for _, l := range ls {
		for _, v := range l.v {
			out = append(out, int64(v))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// nearestRank returns the p-th percentile (0 < p <= 100) of ascending
// samples by the nearest-rank method: the smallest sample with at least
// p% of all samples at or below it. It returns 0 for no samples.
func nearestRank(asc []int64, p float64) int64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

// medianF returns the median of xs (the mean of the middle pair for an
// even count), or 0 for none. xs is reordered.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// linFit accumulates a least-squares line y = a + s·x with running
// (Welford) moments, so millions of points cost O(1) memory and stay
// numerically stable.
type linFit struct {
	n                     float64
	mx, my, sxx, sxy, syy float64
}

func (f *linFit) add(x, y float64) {
	f.n++
	dx := x - f.mx
	f.mx += dx / f.n
	dy := y - f.my
	f.my += dy / f.n
	f.sxx += dx * (x - f.mx)
	f.syy += dy * (y - f.my)
	f.sxy += dx * (y - f.my)
}

// line returns the intercept a, the slope s and the coefficient of
// determination r2. Degenerate inputs (fewer than two distinct x) give a
// flat line through the mean.
func (f *linFit) line() (a, s, r2 float64) {
	if f.n < 2 || f.sxx == 0 {
		return f.my, 0, 0
	}
	s = f.sxy / f.sxx
	a = f.my - s*f.mx
	if f.syy > 0 {
		r2 = f.sxy * f.sxy / (f.sxx * f.syy)
	}
	return a, s, r2
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns the total length of the union of the intervals: nested
// and overlapping intervals count once, adjacent ones add up. The slice
// is reordered.
func covered(iv []interval) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total int64
	var curLo, curHi int64
	open := false
	for _, x := range iv {
		if x.hi <= x.lo {
			continue
		}
		if !open || x.lo > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = x.lo, x.hi, true
			continue
		}
		if x.hi > curHi {
			curHi = x.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTime is a span's duration minus the time its direct children
// cover. Children that run past the parent are not clipped: when a
// replayed child costs more than the call that contained it, the parent's
// self time goes negative, which is the signal that the replay did not
// reproduce the work.
func selfTime(parent interval, children []interval) int64 {
	return parent.hi - parent.lo - covered(children)
}
