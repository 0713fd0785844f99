package main

import "sort"

// blockOps is the length of a traced run's alternating blocks: facade
// spans are kept for the odd blocks only, and the even blocks run exactly
// as an untraced run does, so the two block kinds' throughputs give the
// tracing overhead within one process and one state trajectory.
const blockOps = 4096

// tracedBlock reports whether facade call i falls in a traced block.
func tracedBlock(traced bool, i int) bool { return traced && (i/blockOps)%2 == 1 }

// blockClock accumulates a traced run's wall time and ops per block.
type blockClock struct {
	last int64 // end of the previous call
	ns   []int64
	ops  []int64
}

func (b *blockClock) start(t int64) { b.last = t }

// add charges the interval since the previous call's end, through this
// call's end, to the block of call i. Untraced runs keep no blocks.
func (b *blockClock) add(i int, traced bool, ops int, end int64) {
	if !traced {
		return
	}
	k := i / blockOps
	for len(b.ns) <= k {
		b.ns, b.ops = append(b.ns, 0), append(b.ops, 0)
	}
	b.ns[k] += end - b.last
	b.ops[k] += int64(ops)
	b.last = end
}

// ratios appends, for every untraced block followed by a traced one, the
// traced block's throughput over the untraced block's.
func (b *blockClock) ratios(dst []float64) []float64 {
	for u := 0; u+1 < len(b.ns); u += 2 {
		t := u + 1
		if b.ns[u] > 0 && b.ns[t] > 0 && b.ops[u] > 0 && b.ops[t] > 0 {
			dst = append(dst, (float64(b.ops[t])/float64(b.ns[t]))/(float64(b.ops[u])/float64(b.ns[u])))
		}
	}
	return dst
}

// overheadRatio is the median over block pairs of traced over untraced
// throughput: a flush that lands in one block of a pair moves one ratio,
// not the figure.
func overheadRatio(clocks ...*blockClock) float64 {
	var rs []float64
	for _, b := range clocks {
		rs = b.ratios(rs)
	}
	return medianF(rs)
}

// numSlices is how many consecutive slices a timed phase is cut into.
// Throughput and latency percentiles are computed per slice and reported
// as the median over slices, so a transient stall of the shared machine
// moves one or two slices, not the reported figure.
const numSlices = 10

// sliceMark is where one slice of a client's timed phase ends: its end
// time, the ops completed so far, and the sample counts so far.
type sliceMark struct {
	end           int64
	ops           int64
	reads, writes int
}

// slicer records a client's slice boundaries. Time-sliced phases cut at
// begin + k·width; op-count phases call cut themselves. One slicer per
// process also keeps each slice's resident-set peak (rss).
type slicer struct {
	begin, width int64
	marks        []sliceMark
	rss          bool
	peaks        []float64
}

func newSlicer(begin, width int64, rss bool) *slicer {
	if rss {
		resetPeakRSS()
	}
	return &slicer{begin: begin, width: width, rss: rss, marks: make([]sliceMark, 0, numSlices+1), peaks: make([]float64, 0, numSlices+1)}
}

// tick cuts a slice when end crosses the next time boundary.
func (s *slicer) tick(end, ops int64, reads, writes int) {
	if s.width > 0 && end >= s.begin+int64(len(s.marks)+1)*s.width && len(s.marks) < numSlices-1 {
		s.cut(end, ops, reads, writes)
	}
}

func (s *slicer) cut(end, ops int64, reads, writes int) {
	s.marks = append(s.marks, sliceMark{end, ops, reads, writes})
	if s.rss {
		s.peaks = append(s.peaks, peakRSSMB())
		resetPeakRSS()
	}
}

// peakRSS is the median over slices of each slice's resident-set peak:
// how high the process runs, without the luck of where a collection
// cycle falls deciding the figure.
func (s *slicer) peakRSS() float64 { return medianF(s.peaks) }

// sliceMedians combines the clients' slices (slice k of every client
// covers the same stretch of time) and returns the median over slices of
// the throughput and of the p50 latencies, in ops/s and µs.
func sliceMedians(cl []*slicer, reads, writes []*latencies) (tput, w50, r50 float64) {
	n := len(cl[0].marks)
	for _, s := range cl[1:] {
		if len(s.marks) < n {
			n = len(s.marks)
		}
	}
	var tp, a, c []float64
	var wbuf, rbuf []int64
	for k := 0; k < n; k++ {
		rate := 0.0
		wbuf, rbuf = wbuf[:0], rbuf[:0]
		for i, s := range cl {
			prev := sliceMark{end: s.begin}
			if k > 0 {
				prev = s.marks[k-1]
			}
			m := s.marks[k]
			if m.end > prev.end {
				rate += float64(m.ops-prev.ops) / secs(m.end-prev.end)
			}
			for _, v := range writes[i].v[prev.writes:m.writes] {
				wbuf = append(wbuf, int64(v))
			}
			for _, v := range reads[i].v[prev.reads:m.reads] {
				rbuf = append(rbuf, int64(v))
			}
		}
		tp = append(tp, rate)
		sort.Slice(wbuf, func(i, j int) bool { return wbuf[i] < wbuf[j] })
		sort.Slice(rbuf, func(i, j int) bool { return rbuf[i] < rbuf[j] })
		a = append(a, float64(nearestRank(wbuf, 50))/1e3)
		c = append(c, float64(nearestRank(rbuf, 50))/1e3)
	}
	return medianF(tp), medianF(a), medianF(c)
}

// setSliced sets the throughput and median latencies from the clients'
// slices, and the p99 latencies over the whole phase: a slice holds too
// few samples beyond its p99 for a steady tail.
func setSliced(res *result, cl []*slicer, reads, writes []*latencies) {
	tput, w50, r50 := sliceMedians(cl, reads, writes)
	w, r := sorted(writes...), sorted(reads...)
	res.set("throughput_ops_s", tput)
	res.pct("write_p50_us", w50, len(w))
	res.pct("write_p99_us", float64(nearestRank(w, 99))/1e3, len(w))
	res.pct("read_p50_us", r50, len(r))
	res.note("read_p99_us", float64(nearestRank(r, 99))/1e3, "us")
}
