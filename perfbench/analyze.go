package main

import "sort"

// kindStats accumulates one class of facade call (read, write,
// checkpoint) over the traced ops.
type kindStats struct {
	ops        int64 // logical ops
	calls      int64 // facade spans
	facadeSelf int64
	engineSelf int64
	engineNet  int64 // engine spans net of instrumentation, children included
	copies     int64
	copyBytes  int64
	copyNet    int64
}

// analysis is the per-layer breakdown of a traced run: facade spans from
// the facade run, replay spans grafted under them by op index.
type analysis struct {
	cal         calib
	facadeTotal int64
	self        [numLayers]int64
	kinds       map[spanName]*kindStats

	writeCalls int64   // engine mutation calls
	flushNet   []int64 // engine mutation calls that did flush work
	syncNet    []int64 // arena syncs
	fsyncNet   []int64 // WAL fsyncs
	appends    int64
	appendNet  int64
}

func (a *analysis) kind(n spanName) *kindStats {
	k := a.kinds[n]
	if k == nil {
		k = &kindStats{}
		a.kinds[n] = k
	}
	return k
}

// analyze computes self times. fac holds the traced facade spans and rep
// the replay spans, both in ascending op order; a replay root with op i
// is a child of the facade span with op i. Replay children are shifted
// onto the facade span's clock (the first root starts where the facade
// call started), so a replayed layer that cost more than the call that
// contained it shows up as negative facade self time.
func analyze(fac, rep []span, cal calib) *analysis {
	a := &analysis{cal: cal, kinds: map[spanName]*kindStats{}}
	var kidIv, rootIv []interval
	r := 0
	for fi := range fac {
		f := &fac[fi]
		for r < len(rep) && rep[r].op < f.op {
			r++
		}
		lo := r
		for r < len(rep) && rep[r].op == f.op {
			r++
		}
		ops := rep[lo:r]
		k := a.kind(f.name)
		k.ops += int64(f.weight)
		k.calls++
		a.facadeTotal += f.end - f.start

		rootIv = rootIv[:0]
		var shift int64
		haveRoot := false
		for j := range ops {
			s := &ops[j]
			kidIv = kidIv[:0]
			for c := j + 1; c < len(ops); c++ {
				if ops[c].parent == int32(lo+j) {
					kidIv = append(kidIv, interval{ops[c].start, ops[c].start + cal.net(&ops[c], 0)})
				}
			}
			net := cal.net(s, len(kidIv))
			copyNet := cal.copyNet(s)
			appendNet := s.appendBusy - int64(s.appends)*cal.empty
			self := net - covered(kidIv) - copyNet - appendNet
			layer := s.name.layer()
			a.self[layer] += self
			a.self[layerArena] += copyNet
			a.self[layerWAL] += appendNet
			a.appends += int64(s.appends)
			a.appendNet += appendNet
			if layer == layerEngine {
				k.engineSelf += self
				k.engineNet += net
				k.copies += int64(s.copies)
				k.copyBytes += s.copyBytes
				k.copyNet += copyNet
			}
			switch s.name {
			case spEngineInsert, spEngineDelete, spEngineGroup:
				a.writeCalls++
				if s.flush {
					a.flushNet = append(a.flushNet, net)
				}
			case spArenaSync:
				a.syncNet = append(a.syncNet, net)
			case spWALFsync:
				a.fsyncNet = append(a.fsyncNet, net)
			case spWALAppend:
				a.appends++
				a.appendNet += net
			}
			if s.parent < 0 {
				if !haveRoot {
					shift, haveRoot = f.start-s.start, true
				}
				rootIv = append(rootIv, interval{s.start + shift, s.start + shift + net})
			}
		}
		self := selfTime(interval{f.start, f.end - cal.empty}, rootIv)
		a.self[layerFacade] += self
		k.facadeSelf += self
	}
	return a
}

// minShare returns the smallest self time among the given layers as a
// share of the facade total.
func (a *analysis) minShare(layers ...layerID) float64 {
	if a.facadeTotal <= 0 || len(layers) == 0 {
		return 0
	}
	m := a.self[layers[0]]
	for _, l := range layers[1:] {
		if a.self[l] < m {
			m = a.self[l]
		}
	}
	return float64(m) / float64(a.facadeTotal)
}

// pcts returns the p50 and p99 of xs (nearest rank).
func pcts(xs []int64) (p50, p99 int64) {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return nearestRank(s, 50), nearestRank(s, 99)
}

func per(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
