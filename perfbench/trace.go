package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

var epoch = time.Now()

// now reads the monotonic clock in nanoseconds since process start (one
// runtime clock read; time.Since takes the monotonic fast path).
func now() int64 { return int64(time.Since(epoch)) }

// spanName identifies a layer-boundary call.
type spanName uint8

const (
	spFacadeRead spanName = iota
	spFacadeWrite
	spFacadeCheckpoint
	spEngineInsert
	spEngineDelete
	spEngineGroup
	spEngineWrite
	spEngineRead
	spEngineCheckpoint
	spArenaGrow
	spArenaSync
	spWALAppend
	spWALWrite
	spWALFsync
)

var spanNames = [...]string{
	"facade.read", "facade.write", "facade.checkpoint",
	"engine.insert", "engine.delete", "engine.group", "engine.write", "engine.read", "engine.checkpoint",
	"arena.grow", "arena.sync",
	"wal.append", "wal.write", "wal.fsync",
}

func (n spanName) String() string { return spanNames[n] }

// layer reports which layer a span's self time belongs to.
func (n spanName) layer() layerID {
	switch {
	case n <= spFacadeCheckpoint:
		return layerFacade
	case n <= spEngineCheckpoint:
		return layerEngine
	case n <= spArenaSync:
		return layerArena
	default:
		return layerWAL
	}
}

type layerID uint8

const (
	layerFacade layerID = iota // the root package; btl on dbstore
	layerEngine
	layerArena
	layerWAL
	numLayers
)

// span is one timed call. Arena copies and WAL appends inside an engine
// call are too many to keep one by one, so the engine span carries them
// merged: their count, bytes and summed busy time. Only one copy in
// copyStride is timed (timedCopies of them); copyBusy sums those.
type span struct {
	name       spanName
	flush      bool  // engine write call that did flush work
	op         int32 // index of the facade call that caused the span
	parent     int32 // index of the parent span in the same slice, -1 for a root
	weight     int32 // logical ops a facade span stands for (a batch is many)
	start, end int64
	copies     int32
	timed      int32 // copies that were timed
	appends    int32
	copyBytes  int64
	copyBusy   int64
	appendBusy int64
}

// tracer records replay spans. While on is false (set-up ops, ops of an
// untraced block) it records nothing and the replay calls run bare.
type tracer struct {
	spans []span
	cur   int32
	op    int32
	on    bool
}

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, 0, capacity), cur: -1}
}

// open starts a span as a child of the innermost open span and returns
// its index, or -1 when tracing is off.
func (t *tracer) open(name spanName) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, op: t.op, parent: t.cur})
	i := int32(len(t.spans) - 1)
	t.cur = i
	t.spans[i].start = now()
	return i
}

// close ends span i (a no-op for -1).
func (t *tracer) close(i int32) {
	if i < 0 {
		return
	}
	end := now()
	s := &t.spans[i]
	s.end = end
	t.cur = s.parent
}

// leaf records a finished span under the innermost open span.
func (t *tracer) leaf(name spanName, start, end int64) {
	if t.on {
		t.spans = append(t.spans, span{name: name, op: t.op, parent: t.cur, start: start, end: end})
	}
}

// mergeCopy folds one arena copy into the innermost open span; busy
// counts only for a timed copy.
func (t *tracer) mergeCopy(bytes, busy int64, timed bool) {
	if t.cur >= 0 {
		s := &t.spans[t.cur]
		s.copies++
		s.copyBytes += bytes
		if timed {
			s.timed++
			s.copyBusy += busy
		}
	}
}

// mergeAppend folds one WAL append into the innermost open span, or
// records it as a span of its own when none is open.
func (t *tracer) mergeAppend(start, end int64) {
	if t.cur < 0 {
		t.leaf(spWALAppend, start, end)
		return
	}
	s := &t.spans[t.cur]
	s.appends++
	s.appendBusy += end - start
}

// newSpans returns an empty span buffer whose pages are already
// resident, so recording a span in the timed phase never faults a page in.
func newSpans(capacity int) []span {
	s := make([]span, capacity)
	for i := range s {
		s[i].op = -1
	}
	return s[:0]
}

// calib is the measured cost of the instrumentation itself.
type calib struct {
	// empty is the median reading of a span around no work.
	empty int64
	// perChild is what recording one child span adds to its parent's
	// reading (two clock reads plus the bookkeeping).
	perChild int64
}

// calibrate measures the instrumentation on this machine, in this
// process, right before the replay it corrects.
func calibrate() calib {
	const n = 20001
	d := make([]float64, n)
	for i := range d {
		t0 := now()
		t1 := now()
		d[i] = float64(t1 - t0)
	}
	empty := int64(medianF(d))
	t := newTracer(1024)
	t.on = true
	per := make([]float64, 0, 64)
	for r := 0; r < 64; r++ {
		t.spans = t.spans[:0]
		p := t.open(spEngineInsert)
		for j := 0; j < 1000; j++ {
			s := now()
			t.mergeCopy(1, now()-s, true)
		}
		t.close(p)
		per = append(per, float64(t.spans[p].end-t.spans[p].start)/1000)
	}
	return calib{empty: empty, perChild: int64(medianF(per))}
}

// net is a span's duration with the instrumentation taken out: the empty
// reading it carries itself and the recording cost of each instrumented
// child (explicit child spans plus timed copies and appends).
func (c calib) net(s *span, kids int) int64 {
	return s.end - s.start - c.empty - int64(kids+int(s.timed)+int(s.appends))*c.perChild
}

// copyNet estimates a span's arena copy time from its timed copies: each
// net of the empty reading, scaled by the sampling stride.
func (c calib) copyNet(s *span) int64 {
	return (s.copyBusy - int64(s.timed)*c.empty) * copyStride
}

// writeSpans writes the spans as CSV: one line per span, merged leaves
// summarized in their engine span's columns.
func writeSpans(path string, sets ...[]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "set,index,name,op,parent,start_ns,end_ns,flush,copies,timed_copies,copy_bytes,timed_copy_busy_ns,appends,append_busy_ns")
	for si, spans := range sets {
		for i := range spans {
			s := &spans[i]
			fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d,%t,%d,%d,%d,%d,%d,%d\n",
				si, i, s.name, s.op, s.parent, s.start, s.end, s.flush,
				s.copies, s.timed, s.copyBytes, s.copyBusy, s.appends, s.appendBusy)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
