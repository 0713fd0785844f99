package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"realloc"
	"realloc/internal/addrspace"
	"realloc/internal/arena"
	"realloc/internal/engine"
	"realloc/internal/telemetry"
)

// service-mix: reads beside batched writes on the sharded front-end,
// two closed-loop clients on private id ranges.

const svcShards = 8

func svcBase(client int) int64 { return int64(client+1) << 40 }

// svcClient generates one client's calls: a verified read, or a batch of
// writes. The batch probability makes writes the mix's share of ops.
type svcClient struct {
	m       *churnModel
	batchP  [2]int // a call is a batch with probability batchP[0]/batchP[1]
	size    int
	batch   realloc.Batch
	inserts []churnOp
}

func newSvcClient(sp spec, seed uint64, client int, reserve int) *svcClient {
	w, r := sp.Mix["write"], sp.Mix["read"]
	return &svcClient{
		m:      newChurnModel(seed, client, sp.Sizes.dist(), sp.LiveBytes, svcBase(client), reserve),
		batchP: [2]int{w, sp.BatchSize*r + w},
		size:   sp.BatchSize,
		batch:  make(realloc.Batch, 0, sp.BatchSize),
	}
}

// next returns the next call: a read op, or (batch true) a batch left in
// c.batch with its inserts in c.inserts.
func (c *svcClient) next() (op churnOp, batch bool) {
	if len(c.m.live) > 0 && c.m.rng.IntN(c.batchP[1]) >= c.batchP[0] {
		id := c.m.live[c.m.rng.IntN(len(c.m.live))]
		return churnOp{kind: opRead, id: id, size: c.m.sizeOf(id)}, false
	}
	c.batch, c.inserts = c.batch[:0], c.inserts[:0]
	for j := 0; j < c.size; j++ {
		w := c.m.write()
		if w.kind == opInsert {
			c.batch = append(c.batch, realloc.InsertOp(w.id, w.size))
			c.inserts = append(c.inserts, w)
		} else {
			c.batch = append(c.batch, realloc.DeleteOp(w.id))
		}
	}
	return churnOp{}, true
}

// live reports whether an object inserted by the current batch is still
// live (a later op of the same batch may have deleted it).
func (c *svcClient) live(id int64) bool { return c.m.pos[c.m.k(id)] >= 0 }

func buildServiceMix(sp spec, seed uint64, reserve int) (*realloc.ShardedReallocator, []*svcClient, error) {
	s, err := realloc.NewSharded(realloc.WithShards(svcShards), realloc.WithBackend(realloc.HeapArena),
		realloc.WithTelemetry(telemetry.NewRegistry()))
	if err != nil {
		return nil, nil, err
	}
	buf := make([]byte, sp.Sizes.Max)
	wbuf := make([]byte, sp.BatchSize*int(sp.Sizes.Max))
	cl := make([]*svcClient, sp.Clients)
	for c := range cl {
		cl[c] = newSvcClient(sp, seed, c, reserve)
		m := cl[c].m
		for op, ok := m.fill(); ok; op, ok = m.fill() {
			p := buf[:op.size]
			fillPayload(p, seed, uint64(op.id))
			m.sum[m.k(op.id)] = checksum(p)
			if err := s.Insert(op.id, op.size); err != nil {
				return nil, nil, fmt.Errorf("service-mix set-up: %w", err)
			}
			if err := s.Write(op.id, p); err != nil {
				return nil, nil, fmt.Errorf("service-mix set-up: %w", err)
			}
		}
	}
	for c := range cl {
		for i := 0; i < sp.WarmupOps; {
			_, n, err := cl[c].call(s, seed, wbuf, buf)
			if err != nil {
				return nil, nil, fmt.Errorf("service-mix warm-up: %w", err)
			}
			i += n
		}
	}
	return s, cl, nil
}

// call issues the client's next call and returns its span (name and
// times) and how many logical ops it stood for. Reads are verified.
func (c *svcClient) call(s *realloc.ShardedReallocator, seed uint64, wbuf, rbuf []byte) (span, int, error) {
	op, isBatch := c.next()
	m := c.m
	if !isBatch {
		p := rbuf[:op.size]
		t0 := now()
		n, err := s.Read(op.id, p)
		t1 := now()
		if err == nil && (n != len(p) || checksum(p) != m.sum[m.k(op.id)]) {
			err = fmt.Errorf("read of %d returned wrong bytes", op.id)
		}
		return span{name: spFacadeRead, weight: 1, start: t0, end: t1}, 1, err
	}
	// Payloads are generated before the clock starts; the batch's
	// inserted objects get consecutive slices of wbuf.
	off := 0
	for _, ins := range c.inserts {
		p := wbuf[off : off+int(ins.size)]
		fillPayload(p, seed, uint64(ins.id))
		m.sum[m.k(ins.id)] = checksum(p)
		off += int(ins.size)
	}
	t0 := now()
	errs := s.Apply(c.batch)
	var err error
	off = 0
	for _, ins := range c.inserts {
		p := wbuf[off : off+int(ins.size)]
		off += int(ins.size)
		if c.live(ins.id) {
			if e := s.Write(ins.id, p); e != nil && err == nil {
				err = e
			}
		}
	}
	t1 := now()
	for _, e := range errs {
		if e != nil && err == nil {
			err = e
		}
	}
	return span{name: spFacadeWrite, weight: int32(len(c.batch)), start: t0, end: t1}, len(c.batch), err
}

// svcResult is one client's timed phase.
type svcResult struct {
	ops              int64
	attempted, fails int64
	firstErr         error
	writes, reads    *latencies
	fac              []span  // traced blocks: local call index in op
	ends             []int64 // traced run: every call's end, for the merge
	blocks           blockClock
	footMax          float64
	inserted         int64
	inserts          int64
	end              int64
	sl               *slicer
}

func runServiceMix(sp spec, o options) (*result, error) {
	res := newResult()
	setups := sp.Setups
	if o.traced {
		setups = 1
	}
	perClient := sp.MaxSamples / sp.Clients
	reserve := perClient/8 + int(sp.LiveBytes/sp.Sizes.Min)
	var (
		s        *realloc.ShardedReallocator
		cl       []*svcClient
		setupSec []float64
		peaks    []float64
		err      error
	)
	for k := 0; k < setups; k++ {
		if s != nil {
			s, cl = nil, nil
			releaseMemory()
		}
		resetPeakRSS()
		t0 := now()
		s, cl, err = buildServiceMix(sp, o.seed, reserve)
		if err != nil {
			return nil, err
		}
		setupSec = append(setupSec, secs(now()-t0))
		peaks = append(peaks, peakRSSMB())
	}
	out := make([]*svcResult, len(cl))
	for c := range cl {
		out[c] = &svcResult{writes: newLatencies(perClient), reads: newLatencies(perClient)}
		if o.traced {
			out[c].fac = newSpans(perClient/2 + blockOps)
			out[c].ends = make([]int64, perClient)[:0]
		}
	}
	moved0 := s.BytesMoved()
	releaseMemory()
	alloc0 := totalAlloc()
	start := now()
	deadline := start + int64(o.seconds)*1e9
	for c, r := range out {
		r.sl = newSlicer(start, int64(o.seconds)*1e9/numSlices, c == 0)
	}
	var wg sync.WaitGroup
	for c := range cl {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			svcClientLoop(s, cl[c], out[c], sp, o, c == 0, start, deadline)
		}(c)
	}
	wg.Wait()
	alloc1 := totalAlloc()
	rssAfterGC := rssAfterGCMB()
	moved := s.BytesMoved() - moved0
	var end int64
	var ops, inserted, inserts int64
	var writes, reads []*latencies
	var sls []*slicer
	foot := 0.0
	for _, r := range out {
		res.attempted += r.attempted
		res.failed += r.fails
		if r.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: op failed:", r.firstErr)
		}
		ops += r.ops
		inserted += r.inserted
		inserts += r.inserts
		writes, reads = append(writes, r.writes), append(reads, r.reads)
		sls = append(sls, r.sl)
		if r.end > end {
			end = r.end
		}
		if r.footMax > foot {
			foot = r.footMax
		}
	}
	if err := s.CheckInvariants(); err != nil {
		res.fail("service-mix invariants after the timed phase: %v", err)
	}
	if !o.traced {
		res.set("setup_s", medianF(setupSec))
		setSliced(res, sls, reads, writes)
		res.set("footprint_ratio_max", foot)
		res.set("moved_bytes_per_byte", per(moved, inserted))
		res.set("rss_after_gc_mb", rssAfterGC)
		res.note("peak_rss_mb", out[0].sl.peakRSS(), "MB")
		res.note("setup_peak_rss_mb", medianF(peaks), "MB")
		res.note("alloc_bytes_per_op", float64(alloc1-alloc0)/float64(ops), "B")
		res.note("throughput_whole_phase_ops_s", float64(ops)/secs(end-start), "1/s")
		return res, nil
	}

	var clocks []*blockClock
	for _, r := range out {
		clocks = append(clocks, &r.blocks)
	}
	fac, order := mergeCalls(out)
	a, st, err := replayServiceMix(sp, o, s, reserve, order, fac)
	if err != nil {
		return nil, err
	}
	an := analyze(fac, a.spans, a.cal)
	churnLayerMetrics(res, an, st, inserts)
	res.set("trace.min_self_share", an.minShare(layerFacade, layerEngine, layerArena))
	res.set("trace.overhead_ratio", overheadRatio(clocks...))
	if err := writeSpans(filepath.Join(o.workdir, fmt.Sprintf("spans-service-mix-%d.csv", o.seed)), fac, a.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// svcClientLoop is one client's timed phase. Client 0 also samples the
// footprint ratio after its batches.
func svcClientLoop(s *realloc.ShardedReallocator, c *svcClient, r *svcResult, sp spec, o options, sampler bool, start, deadline int64) {
	wbuf := make([]byte, sp.BatchSize*int(sp.Sizes.Max))
	rbuf := make([]byte, sp.Sizes.Max)
	r.blocks.start(start)
	for i := 0; ; i++ {
		sp0, n, err := c.call(s, o.seed, wbuf, rbuf)
		r.attempted += int64(n)
		if err != nil {
			r.fails += int64(n)
			if r.firstErr == nil {
				r.firstErr = err
			}
		}
		if sp0.name == spFacadeRead {
			r.reads.add(sp0.end - sp0.start)
		} else {
			r.writes.addN(sp0.end-sp0.start, n)
			for _, ins := range c.inserts {
				r.inserted += ins.size
			}
			if tracedBlock(o.traced, i) {
				r.inserts += int64(len(c.inserts))
			}
			if sampler {
				if f := float64(s.Footprint()) / float64(s.Volume()); f > r.footMax {
					r.footMax = f
				}
			}
		}
		if o.traced {
			r.ends = append(r.ends, sp0.end)
			if tracedBlock(true, i) {
				sp0.op, sp0.parent = int32(i), -1
				r.fac = append(r.fac, sp0)
			}
		}
		r.blocks.add(i, o.traced, n, sp0.end)
		r.ops += int64(n)
		r.sl.tick(sp0.end, r.ops, len(r.reads.v), len(r.writes.v))
		if sp0.end >= deadline || r.reads.full(1) || r.writes.full(sp.BatchSize) {
			r.sl.cut(sp0.end, r.ops, len(r.reads.v), len(r.writes.v))
			r.end = sp0.end
			return
		}
	}
}

// svcCall names one facade call of the merged stream.
type svcCall struct {
	client, local int
	end           int64
}

// mergeCalls orders every client's calls by the time they returned —
// the order their shard locks most plausibly serialized them in — and
// renumbers the traced facade spans by position in that order. A
// client's own calls keep their issue order: their end times increase.
func mergeCalls(out []*svcResult) ([]span, []svcCall) {
	var order []svcCall
	for c, r := range out {
		for j, e := range r.ends {
			order = append(order, svcCall{client: c, local: j, end: e})
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].end < order[b].end })
	global := make([][]int32, len(out))
	for c, r := range out {
		global[c] = make([]int32, len(r.ends))
	}
	for g, call := range order {
		global[call.client][call.local] = int32(g)
	}
	var fac []span
	for c, r := range out {
		for _, f := range r.fac {
			f.op = global[c][f.op]
			fac = append(fac, f)
		}
	}
	sort.Slice(fac, func(a, b int) bool { return fac[a].op < fac[b].op })
	return fac, order
}

// replayServiceMix regenerates both clients' streams and drives them, in
// the merged order, into one engine.New per shard — the workload's
// variant and telemetry, over timing wrappers of heap arenas — issuing
// exactly the calls the facade made: a read, or per batch one ApplyGroup
// per touched shard in ascending order, then a Write per inserted
// payload.
func replayServiceMix(sp spec, o options, s *realloc.ShardedReallocator, reserve int, order []svcCall, fac []span) (replayed, *arenaStats, error) {
	cal := calibrate()
	t := newTracer(8*len(fac) + 1024)
	traced := make([]bool, len(order))
	for _, f := range fac {
		traced[f.op] = true
	}
	st := &arenaStats{}
	reg := telemetry.NewRegistry()
	eng := make([]engine.Engine, svcShards)
	for i := range eng {
		heap, err := arena.New(arena.Heap)
		if err != nil {
			return replayed{}, nil, err
		}
		eng[i], err = engine.New(engine.Config{Core: engine.PODS14, Variant: engine.Amortized, Epsilon: 0.25,
			Telemetry: reg.Shard(i), Arena: newTimedArena(heap, t, cal.empty, st)})
		if err != nil {
			return replayed{}, nil, err
		}
	}
	rps := make([]engineReplayer, svcShards)
	for i := range rps {
		rps[i] = engineReplayer{e: eng[i], t: t, seed: o.seed, buf: make([]byte, sp.Sizes.Max)}
	}
	cl := make([]*svcClient, sp.Clients)
	for c := range cl {
		cl[c] = newSvcClient(sp, o.seed, c, reserve)
		m := cl[c].m
		for op, ok := m.fill(); ok; op, ok = m.fill() {
			if err := rps[s.ShardOf(op.id)].apply(op); err != nil {
				return replayed{}, nil, err
			}
		}
	}
	gr := groupReplayer{s: s, rps: rps}
	for c := range cl {
		for i := 0; i < sp.WarmupOps; {
			n, err := gr.call(cl[c])
			if err != nil {
				return replayed{}, nil, err
			}
			i += n
		}
	}
	for g, call := range order {
		t.on, t.op = traced[g], int32(g)
		if _, err := gr.call(cl[call.client]); err != nil {
			return replayed{}, nil, fmt.Errorf("replay call %d: %w", g, err)
		}
	}
	t.on = false
	return replayed{spans: t.spans, cal: cal}, st, nil
}

// groupReplayer replays one service-mix call into the per-shard engines.
type groupReplayer struct {
	s    *realloc.ShardedReallocator
	rps  []engineReplayer
	ops  [svcShards][]addrspace.Op
	errs []error
}

func (g *groupReplayer) call(c *svcClient) (int, error) {
	op, isBatch := c.next()
	if !isBatch {
		return 1, g.rps[g.s.ShardOf(op.id)].apply(op)
	}
	for i := range g.ops {
		g.ops[i] = g.ops[i][:0]
	}
	for _, b := range c.batch {
		sh := g.s.ShardOf(b.ID)
		g.ops[sh] = append(g.ops[sh], addrspace.Op{ID: addrspace.ID(b.ID), Size: b.Size, Del: b.Kind == realloc.OpDelete})
	}
	for sh := range g.ops {
		ops := g.ops[sh]
		if len(ops) == 0 {
			continue
		}
		if cap(g.errs) < len(ops) {
			g.errs = make([]error, len(ops))
		}
		errs := g.errs[:len(ops)]
		rp := &g.rps[sh]
		if err := timedMutation(rp.t, rp.e, spEngineGroup, func() error {
			rp.e.ApplyGroup(ops, errs)
			return nil
		}); err != nil {
			return 0, err
		}
		for _, e := range errs {
			if e != nil {
				return 0, e
			}
		}
	}
	for _, ins := range c.inserts {
		if !c.live(ins.id) {
			continue
		}
		rp := &g.rps[g.s.ShardOf(ins.id)]
		p := rp.buf[:ins.size]
		fillPayload(p, rp.seed, uint64(ins.id))
		s := rp.t.open(spEngineWrite)
		err := rp.e.Write(engine.ID(ins.id), p)
		rp.t.close(s)
		if err != nil {
			return 0, err
		}
	}
	return len(c.batch), nil
}
