package main

import (
	"fmt"
	"path/filepath"

	"realloc"
	"realloc/internal/arena"
	"realloc/internal/engine"
)

// heap-churn: the default configuration on a working set larger than the
// L3, one closed-loop client.

// buildHeapChurn builds the facade and fills it to the target volume.
func buildHeapChurn(sp spec, seed uint64, reserve int) (*realloc.Reallocator, *churnModel, error) {
	r, err := realloc.New(realloc.WithBackend(realloc.HeapArena))
	if err != nil {
		return nil, nil, err
	}
	m := newChurnModel(seed, 0, sp.Sizes.dist(), sp.LiveBytes, 1, reserve)
	buf := make([]byte, sp.Sizes.Max)
	apply := func(op churnOp) error {
		switch op.kind {
		case opInsert:
			p := buf[:op.size]
			fillPayload(p, seed, uint64(op.id))
			m.sum[m.k(op.id)] = checksum(p)
			if err := r.Insert(op.id, op.size); err != nil {
				return err
			}
			return r.Write(op.id, p)
		case opDelete:
			return r.Delete(op.id)
		}
		return nil
	}
	for op, ok := m.fill(); ok; op, ok = m.fill() {
		if err := apply(op); err != nil {
			return nil, nil, fmt.Errorf("heap-churn set-up: %w", err)
		}
	}
	for i := 0; i < sp.WarmupOps; i++ {
		if err := apply(m.step(sp.Mix["read"])); err != nil {
			return nil, nil, fmt.Errorf("heap-churn warm-up: %w", err)
		}
	}
	return r, m, nil
}

// churnPhase is what a timed phase of an in-memory workload measured.
type churnPhase struct {
	calls    int // facade calls issued (the replay regenerates this many)
	ops      int64
	elapsed  int64
	writes   *latencies
	reads    *latencies
	fac      []span
	blocks   blockClock
	footMax  float64
	inserted int64 // payload bytes inserted
	inserts  int64 // objects inserted in traced blocks
}

func runHeapChurn(sp spec, o options) (*result, error) {
	res := newResult()
	setups := sp.Setups
	if o.traced {
		setups = 1
	}
	reserve := sp.MaxSamples/2 + int(sp.LiveBytes/sp.Sizes.Min/4)
	var (
		r        *realloc.Reallocator
		m        *churnModel
		setupSec []float64
		peaks    []float64
		err      error
	)
	for k := 0; k < setups; k++ {
		if r != nil {
			r, m = nil, nil
			releaseMemory()
		}
		resetPeakRSS()
		t0 := now()
		r, m, err = buildHeapChurn(sp, o.seed, reserve)
		if err != nil {
			return nil, err
		}
		setupSec = append(setupSec, secs(now()-t0))
		peaks = append(peaks, peakRSSMB())
	}
	m.reserve(sp.MaxSamples)
	ph := churnPhase{writes: newLatencies(sp.MaxSamples), reads: newLatencies(sp.MaxSamples)}
	if o.traced {
		ph.fac = newSpans(sp.MaxSamples/2 + blockOps)
	}
	buf := make([]byte, sp.Sizes.Max)
	rd := make([]byte, sp.Sizes.Max)
	readPct := sp.Mix["read"]
	moved0 := r.BytesMoved()
	flushes0 := r.Flushes()
	releaseMemory()
	alloc0 := totalAlloc()

	start := now()
	deadline := start + int64(o.seconds)*1e9
	ph.blocks.start(start)
	sl := newSlicer(start, int64(o.seconds)*1e9/numSlices, true)
	for i := 0; ; i++ {
		op := m.step(readPct)
		var t0, t1 int64
		var err error
		name := spFacadeWrite
		switch op.kind {
		case opRead:
			name = spFacadeRead
			p := rd[:op.size]
			t0 = now()
			var n int
			n, err = r.Read(op.id, p)
			t1 = now()
			ph.reads.add(t1 - t0)
			if err == nil && (n != len(p) || checksum(p) != m.sum[m.k(op.id)]) {
				err = fmt.Errorf("read of %d returned wrong bytes", op.id)
			}
		case opInsert:
			p := buf[:op.size]
			fillPayload(p, o.seed, uint64(op.id))
			m.sum[m.k(op.id)] = checksum(p)
			t0 = now()
			err = r.Insert(op.id, op.size)
			if err == nil {
				err = r.Write(op.id, p)
			}
			t1 = now()
			ph.writes.add(t1 - t0)
			ph.inserted += op.size
			if tracedBlock(o.traced, i) {
				ph.inserts++
			}
		case opDelete:
			t0 = now()
			err = r.Delete(op.id)
			t1 = now()
			ph.writes.add(t1 - t0)
		}
		res.attempted++
		res.check(err)
		if op.kind != opRead {
			if f := float64(r.Footprint()) / float64(r.Volume()); f > ph.footMax {
				ph.footMax = f
			}
		}
		if tracedBlock(o.traced, i) {
			ph.fac = append(ph.fac, span{name: name, op: int32(i), parent: -1, weight: 1, start: t0, end: t1})
		}
		ph.blocks.add(i, o.traced, 1, t1)
		ph.ops++
		sl.tick(t1, ph.ops, len(ph.reads.v), len(ph.writes.v))
		if t1 >= deadline || ph.reads.full(1) || ph.writes.full(1) {
			sl.cut(t1, ph.ops, len(ph.reads.v), len(ph.writes.v))
			ph.calls = i + 1
			ph.elapsed = t1 - start
			break
		}
	}
	alloc1 := totalAlloc()
	rssAfterGC := rssAfterGCMB()
	moved := r.BytesMoved() - moved0
	res.note("flushes", float64(r.Flushes()-flushes0), "count")
	if err := r.CheckInvariants(); err != nil {
		res.fail("heap-churn invariants after the timed phase: %v", err)
	}

	if !o.traced {
		res.set("setup_s", medianF(setupSec))
		setSliced(res, []*slicer{sl}, []*latencies{ph.reads}, []*latencies{ph.writes})
		res.set("footprint_ratio_max", ph.footMax)
		res.set("moved_bytes_per_byte", per(moved, ph.inserted))
		res.set("rss_after_gc_mb", rssAfterGC)
		res.note("peak_rss_mb", sl.peakRSS(), "MB")
		res.note("setup_peak_rss_mb", medianF(peaks), "MB")
		res.note("alloc_bytes_per_op", float64(alloc1-alloc0)/float64(ph.ops), "B")
		res.note("throughput_whole_phase_ops_s", float64(ph.ops)/secs(ph.elapsed), "1/s")
		return res, nil
	}

	overhead := overheadRatio(&ph.blocks)
	r, m = nil, nil
	releaseMemory()
	a, ta, _, err := replayHeapChurn(sp, o, reserve, ph.calls, len(ph.fac))
	if err != nil {
		return nil, err
	}
	an := analyze(ph.fac, a.spans, a.cal)
	churnLayerMetrics(res, an, ta, ph.inserts)
	res.set("trace.min_self_share", an.minShare(layerFacade, layerEngine, layerArena))
	res.set("trace.overhead_ratio", overhead)
	if err := writeSpans(filepath.Join(o.workdir, fmt.Sprintf("spans-heap-churn-%d.csv", o.seed)), ph.fac, a.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// replayed is a finished replay: its spans and calibration.
type replayed struct {
	spans []span
	cal   calib
}

// replayHeapChurn regenerates the run's stream — set-up, then the timed
// phase's calls — and drives it into engine.New over a timing wrapper of
// a heap arena: the calls the facade made into its engine.
func replayHeapChurn(sp spec, o options, reserve, calls, traced int) (replayed, *arenaStats, engine.Engine, error) {
	cal := calibrate()
	t := newTracer(3*traced + 1024)
	heap, err := arena.New(arena.Heap)
	if err != nil {
		return replayed{}, nil, nil, err
	}
	st := &arenaStats{}
	ta := newTimedArena(heap, t, cal.empty, st)
	e, err := engine.New(engine.Config{Core: engine.PODS14, Variant: engine.Amortized, Epsilon: 0.25, Arena: ta})
	if err != nil {
		return replayed{}, nil, nil, err
	}
	m := newChurnModel(o.seed, 0, sp.Sizes.dist(), sp.LiveBytes, 1, reserve)
	m.reserve(calls)
	rp := engineReplayer{e: e, t: t, seed: o.seed, buf: make([]byte, sp.Sizes.Max)}
	for op, ok := m.fill(); ok; op, ok = m.fill() {
		if err := rp.apply(op); err != nil {
			return replayed{}, nil, nil, err
		}
	}
	for i := 0; i < sp.WarmupOps; i++ {
		if err := rp.apply(m.step(sp.Mix["read"])); err != nil {
			return replayed{}, nil, nil, err
		}
	}
	for i := 0; i < calls; i++ {
		t.on, t.op = tracedBlock(o.traced, i), int32(i)
		if err := rp.apply(m.step(sp.Mix["read"])); err != nil {
			return replayed{}, nil, nil, fmt.Errorf("replay call %d: %w", i, err)
		}
	}
	t.on = false
	return replayed{spans: t.spans, cal: cal}, st, e, nil
}

// engineReplayer issues one facade op's engine calls, each timed as a
// span, with flush work classified from Flushes and FlushActive.
type engineReplayer struct {
	e    engine.Engine
	t    *tracer
	seed uint64
	buf  []byte
}

func (rp *engineReplayer) apply(op churnOp) error {
	id := engine.ID(op.id)
	switch op.kind {
	case opRead:
		s := rp.t.open(spEngineRead)
		_, err := rp.e.Read(id, rp.buf[:op.size])
		rp.t.close(s)
		return err
	case opInsert:
		p := rp.buf[:op.size]
		fillPayload(p, rp.seed, uint64(op.id))
		if err := timedMutation(rp.t, rp.e, spEngineInsert, func() error { return rp.e.Insert(id, op.size) }); err != nil {
			return err
		}
		s := rp.t.open(spEngineWrite)
		err := rp.e.Write(id, p)
		rp.t.close(s)
		return err
	default:
		return timedMutation(rp.t, rp.e, spEngineDelete, func() error { return rp.e.Delete(id) })
	}
}

// flusher is the flush state an engine exposes.
type flusher interface {
	Flushes() int64
	FlushActive() bool
}

// timedMutation times one engine mutation and marks it when it did flush
// work: it started a flush (Flushes advanced) or ran while one was
// active.
func timedMutation(t *tracer, f flusher, name spanName, call func() error) error {
	f0, a0 := f.Flushes(), f.FlushActive()
	s := t.open(name)
	err := call()
	t.close(s)
	if s >= 0 && (f.Flushes() != f0 || a0 || f.FlushActive()) {
		t.spans[s].flush = true
	}
	return err
}

// churnLayerMetrics sets the facade, engine and arena metrics of the
// in-memory workloads from the analysis and the replay's arena.
func churnLayerMetrics(res *result, an *analysis, ta *arenaStats, inserts int64) {
	rd, wr := an.kind(spFacadeRead), an.kind(spFacadeWrite)
	res.set("facade.self_ns_per_read", per(rd.facadeSelf, rd.ops))
	res.set("facade.self_us_per_write", per(wr.facadeSelf, wr.ops)/1e3)
	res.set("engine.self_us_per_write", per(wr.engineSelf, wr.ops)/1e3)
	res.set("engine.ns_per_read", per(rd.engineNet, rd.ops))
	flushMetrics(res, an)
	arenaMetrics(res, ta, wr, inserts)
}

func flushMetrics(res *result, an *analysis) {
	res.set("engine.flush_write_share", per(int64(len(an.flushNet)), an.writeCalls))
	p50, p99 := pcts(an.flushNet)
	res.pct("engine.flush_us_p50", float64(p50)/1e3, len(an.flushNet))
	res.pct("engine.flush_us_p99", float64(p99)/1e3, len(an.flushNet))
}

func arenaMetrics(res *result, ta *arenaStats, wr *kindStats, inserts int64) {
	res.set("arena.copy_us_per_write", per(wr.copyNet, wr.ops)/1e3)
	res.set("arena.copy_bytes_per_write", per(wr.copyBytes, wr.ops))
	res.set("arena.copies_per_insert", per(wr.copies, inserts))
	a, s, r2 := ta.fit.line()
	res.set("arena.copy_fixed_ns", a)
	if s > 0 {
		res.set("arena.copy_bytes_per_ns", 1/s)
	}
	res.set("arena.copy_fit_r2", r2)
	res.set("arena.grows", float64(ta.grows))
	res.set("arena.grow_ms_total", float64(ta.growNS)/1e6)
	res.note("arena.copies_fitted", ta.fit.n, "count")
}
