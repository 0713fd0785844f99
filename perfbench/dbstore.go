package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"

	"realloc"
	"realloc/internal/arena"
	"realloc/internal/btl"
	"realloc/internal/core"
	"realloc/internal/faultfs"
	"realloc/internal/trace"
	"realloc/internal/wal"
	"realloc/internal/workload"
)

// dbstore: a durable BlockStore on local disk, one closed-loop client.

// Calls of the dbstore stream.
const (
	dbGet uint8 = iota
	dbRewrite
	dbCreate
	dbDrop
	dbCheckpoint
)

type dbCall struct {
	kind uint8
	name int32 // name index
	size int64
	id   uint64 // btl id the Put of this call gets (payload key)
}

// dbModel is the client's model of the store. btl numbers the blocks it
// creates 1, 2, 3, ... in Put order, so the model knows every block's id
// and the replay can issue the same engine calls. The name table is
// built up front so the timed phase allocates no strings.
type dbModel struct {
	rng   *rand.Rand
	sizes workload.SizeDist
	mix   [4]int // cumulative percent: get, rewrite, create, drop
	every int

	names  []string
	live   []int32
	pos    []int32 // name -> index in live, -1 when dropped
	size   []int64
	id     []uint64
	nextID uint64

	mutations int
	ckptDue   bool
}

func newDBModel(sp spec, seed uint64, maxNames int) *dbModel {
	m := &dbModel{
		rng:    newRNG(seed, 0),
		sizes:  sp.Sizes.dist(),
		every:  sp.CheckpointEvery,
		names:  make([]string, maxNames),
		live:   make([]int32, 0, maxNames),
		pos:    make([]int32, 0, maxNames),
		size:   make([]int64, 0, maxNames),
		id:     make([]uint64, 0, maxNames),
		nextID: 1,
	}
	acc := 0
	for i, k := range []string{"read", "rewrite", "create", "drop"} {
		acc += sp.Mix[k]
		m.mix[i] = acc
	}
	for i := range m.names {
		m.names[i] = fmt.Sprintf("blk%08d", i)
	}
	return m
}

func (m *dbModel) put(name int32, size int64) dbCall {
	m.size[name] = size
	m.id[name] = m.nextID
	m.nextID++
	return dbCall{kind: dbCreate, name: name, size: size, id: m.id[name]}
}

// create adds a new name.
func (m *dbModel) create() dbCall {
	name := int32(len(m.pos))
	if int(name) >= len(m.names) {
		m.names = append(m.names, fmt.Sprintf("blk%08d", name))
	}
	m.pos = append(m.pos, int32(len(m.live)))
	m.live = append(m.live, name)
	m.size = append(m.size, 0)
	m.id = append(m.id, 0)
	return m.put(name, m.sizes.Draw(m.rng))
}

func (m *dbModel) pick() int32 { return m.live[m.rng.IntN(len(m.live))] }

// next returns the next call; after every m.every-th mutation it is an
// explicit checkpoint.
func (m *dbModel) next() dbCall {
	if m.ckptDue {
		m.ckptDue = false
		return dbCall{kind: dbCheckpoint}
	}
	u := m.rng.IntN(100)
	if u < m.mix[0] {
		n := m.pick()
		return dbCall{kind: dbGet, name: n, size: m.size[n]}
	}
	m.mutations++
	m.ckptDue = m.mutations%m.every == 0
	switch {
	case u < m.mix[1]:
		c := m.put(m.pick(), m.sizes.Draw(m.rng))
		c.kind = dbRewrite
		return c
	case u < m.mix[2] || len(m.live) < 2:
		return m.create()
	default:
		j := m.rng.IntN(len(m.live))
		n := m.live[j]
		last := m.live[len(m.live)-1]
		m.live[j] = last
		m.pos[last] = int32(j)
		m.live = m.live[:len(m.live)-1]
		m.pos[n] = -1
		return dbCall{kind: dbDrop, name: n}
	}
}

// moveTap counts the volume the store's reallocator moves, through
// btl.Config.Recorder: btl always records, so the tap adds no code path.
type moveTap struct{ moved int64 }

func (t *moveTap) Record(e trace.Event) {
	if e.Kind == trace.KMove {
		t.moved += e.Size
	}
}

func withRecorder(rec trace.Recorder) realloc.BlockStoreOption {
	return func(c *btl.Config) { c.Recorder = rec }
}

// buildDBStore creates a fresh durable store in dir and fills it.
func buildDBStore(sp spec, seed uint64, dir string, m *dbModel, tap *moveTap) (*realloc.BlockStore, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s, err := realloc.NewBlockStore(realloc.BlockStoreDir(dir), withRecorder(tap))
	if err != nil {
		return nil, err
	}
	buf := make([]byte, sp.Sizes.Max)
	for i := 0; i < sp.LiveBlocks; i++ {
		c := m.create()
		p := buf[:c.size]
		fillPayload(p, seed, c.id)
		if err := s.Put(m.names[c.name], p); err != nil {
			s.Close()
			return nil, fmt.Errorf("dbstore set-up: %w", err)
		}
	}
	s.Checkpoint()
	if err := s.Err(); err != nil {
		s.Close()
		return nil, fmt.Errorf("dbstore set-up: %w", err)
	}
	return s, nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func runDBStore(sp spec, o options) (*result, error) {
	res := newResult()
	setups := sp.Setups
	if o.traced {
		setups = 1
	}
	maxNames := sp.LiveBlocks + sp.MaxSamples/8
	dir := filepath.Join(o.workdir, fmt.Sprintf("dbstore-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	var (
		s        *realloc.BlockStore
		m        *dbModel
		tap      = &moveTap{}
		setupSec []float64
		peaks    []float64
		err      error
	)
	for k := 0; k < setups; k++ {
		if s != nil {
			if err := s.Close(); err != nil {
				return nil, err
			}
			releaseMemory()
		}
		resetPeakRSS()
		m = newDBModel(sp, o.seed, maxNames)
		t0 := now()
		s, err = buildDBStore(sp, o.seed, dir, m, tap)
		if err != nil {
			return nil, err
		}
		setupSec = append(setupSec, secs(now()-t0))
		peaks = append(peaks, peakRSSMB())
	}
	closed := false
	defer func() {
		if !closed {
			s.Close()
		}
	}()

	writes, reads := newLatencies(sp.MaxSamples), newLatencies(sp.MaxSamples)
	ckpts := newLatencies(sp.TimedCheckpoints + 1)
	var fac []span
	if o.traced {
		fac = newSpans(sp.MaxSamples/2 + blockOps)
	}
	buf := make([]byte, sp.Sizes.Max)
	var blocks blockClock
	var ops, mutations, putBytes int64
	footMax := 0.0
	explicit := 0
	moved0, ckpt0 := tap.moved, s.Checkpoints()
	releaseMemory()
	alloc0 := totalAlloc()
	start := now()
	blocks.start(start)
	sl := newSlicer(start, 0, true)
	perSlice := sp.TimedCheckpoints / numSlices
	calls := 0
	for i := 0; explicit < sp.TimedCheckpoints; i++ {
		c := m.next()
		name := m.names[c.name]
		var t0, t1 int64
		var err error
		fname := spFacadeWrite
		switch c.kind {
		case dbGet:
			fname = spFacadeRead
			t0 = now()
			var b []byte
			b, err = s.Get(name)
			t1 = now()
			reads.add(t1 - t0)
			if err == nil {
				fillPayload(buf[:c.size], o.seed, m.id[c.name])
				if int64(len(b)) != c.size || checksum(b) != checksum(buf[:c.size]) {
					err = fmt.Errorf("get %s returned wrong bytes", name)
				}
			}
		case dbRewrite, dbCreate:
			p := buf[:c.size]
			fillPayload(p, o.seed, c.id)
			t0 = now()
			if c.kind == dbRewrite {
				err = s.Drop(name)
			}
			if err == nil {
				err = s.Put(name, p)
			}
			t1 = now()
			writes.add(t1 - t0)
			putBytes += c.size
		case dbDrop:
			t0 = now()
			err = s.Drop(name)
			t1 = now()
			writes.add(t1 - t0)
		case dbCheckpoint:
			fname = spFacadeCheckpoint
			t0 = now()
			s.Checkpoint()
			t1 = now()
			if err := s.Err(); err != nil {
				res.fail("checkpoint %d: %v", explicit, err)
			}
			ckpts.add(t1 - t0)
			explicit++
			if explicit%perSlice == 0 || explicit == sp.TimedCheckpoints {
				sl.cut(t1, ops, len(reads.v), len(writes.v))
			}
		}
		weight := 0
		if c.kind != dbCheckpoint {
			weight = 1
			res.attempted++
			res.check(err)
			ops++
		}
		if c.kind != dbGet && c.kind != dbCheckpoint {
			mutations++
			if f := float64(s.Footprint()) / float64(s.Volume()); f > footMax {
				footMax = f
			}
		}
		if tracedBlock(o.traced, i) {
			fac = append(fac, span{name: fname, op: int32(i), parent: -1, weight: int32(weight), start: t0, end: t1})
		}
		blocks.add(i, o.traced, weight, t1)
		calls = i + 1
		if reads.full(1) || writes.full(1) {
			return nil, errors.New("dbstore: sample buffers too small for the fixed op count")
		}
	}
	elapsed := now() - start
	alloc1 := totalAlloc()
	rssAfterGC := rssAfterGCMB()
	moved := tap.moved - moved0
	ckptPerMut := per(s.Checkpoints()-ckpt0, mutations)
	if err := s.CheckInvariants(); err != nil {
		res.fail("dbstore invariants after the timed phase: %v", err)
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	diskRatio := float64(disk) / float64(s.Volume())
	walSize := int64(0)
	if st, err := os.Stat(filepath.Join(dir, "wal.log")); err == nil {
		walSize = st.Size()
	}
	if err := s.Err(); err != nil {
		res.fail("store failed: %v", err)
	}
	closed = true
	if err := s.Close(); err != nil {
		return nil, err
	}
	walCopy := filepath.Join(o.workdir, fmt.Sprintf("wal-copy-%d.log", os.Getpid()))
	defer os.Remove(walCopy)
	if o.traced {
		if err := copyFile(walCopy, filepath.Join(dir, "wal.log")); err != nil {
			return nil, err
		}
	}
	recovery := reopenAndSweep(res, dir, m, o.seed, sp)

	ck := sorted(ckpts)
	ckP50, ckP95 := float64(nearestRank(ck, 50))/1e6, float64(nearestRank(ck, 95))/1e6
	if !o.traced {
		res.set("setup_s", medianF(setupSec))
		setSliced(res, []*slicer{sl}, []*latencies{reads}, []*latencies{writes})
		res.set("footprint_ratio_max", footMax)
		res.set("moved_bytes_per_byte", per(moved, putBytes))
		res.set("rss_after_gc_mb", rssAfterGC)
		res.note("peak_rss_mb", sl.peakRSS(), "MB")
		res.note("setup_peak_rss_mb", medianF(peaks), "MB")
		res.note("alloc_bytes_per_op", float64(alloc1-alloc0)/float64(ops), "B")
		res.note("throughput_whole_phase_ops_s", float64(ops)/secs(elapsed), "1/s")
		res.note("checkpoint_p50_ms", ckP50, "ms")
		res.note("checkpoint_p95_ms", ckP95, "ms")
		res.note("recovery_s", recovery, "s")
		res.note("disk_bytes_per_live_byte", diskRatio, "ratio")
		res.note("checkpoints_explicit", float64(len(ck)), "count")
		return res, nil
	}

	res.pct("btl.checkpoint_p50_ms", ckP50, len(ck))
	res.pct("btl.checkpoint_p95_ms", ckP95, len(ck))
	res.set("btl.recovery_s", recovery)
	res.set("btl.disk_bytes_per_live_byte", diskRatio)
	res.set("btl.checkpoints_per_mutation", ckptPerMut)
	s = nil
	releaseMemory()
	rp, err := replayDBStore(sp, o, maxNames, calls, fac)
	if err != nil {
		return nil, err
	}
	res.note("wal.bytes_facade", float64(walSize), "B")
	res.note("wal.bytes_replay", float64(rp.walBytes), "B")
	if rp.walBytes != walSize {
		fmt.Fprintf(os.Stderr, "perfbench: replayed WAL is %d bytes, the store's is %d\n", rp.walBytes, walSize)
	}
	replayS, err := timeWALOpen(walCopy)
	if err != nil {
		return nil, err
	}
	an := analyze(fac, rp.spans, rp.cal)
	wr, ckk := an.kind(spFacadeWrite), an.kind(spFacadeCheckpoint)
	res.set("btl.self_us_per_mutation", per(wr.facadeSelf, wr.ops)/1e3)
	res.set("btl.checkpoint_self_ms", per(ckk.facadeSelf, ckk.calls)/1e6)
	res.set("btl.recovery_rebuild_s", recovery-replayS)
	res.set("engine.self_us_per_write", per(wr.engineSelf, wr.ops)/1e3)
	res.set("engine.ns_per_read", per(an.kind(spFacadeRead).engineNet, an.kind(spFacadeRead).ops))
	flushMetrics(res, an)
	arenaMetrics(res, rp.arena, wr, rp.inserts)
	p50, p99 := pcts(an.syncNet)
	res.pct("arena.sync_ms_p50", float64(p50)/1e6, len(an.syncNet))
	res.pct("arena.sync_ms_p99", float64(p99)/1e6, len(an.syncNet))
	res.set("wal.records_per_mutation", per(rp.records, rp.mutations))
	res.set("wal.bytes_per_user_byte", per(rp.logged, rp.userBytes))
	res.set("wal.append_ns_per_record", per(an.appendNet, an.appends))
	res.set("wal.fsyncs_per_mutation", per(rp.fsyncs, rp.mutations))
	p50, p99 = pcts(an.fsyncNet)
	res.pct("wal.fsync_ms_p50", float64(p50)/1e6, len(an.fsyncNet))
	res.pct("wal.fsync_ms_p99", float64(p99)/1e6, len(an.fsyncNet))
	res.set("wal.replay_s", replayS)
	res.set("trace.min_self_share", an.minShare(layerFacade, layerEngine, layerArena, layerWAL))
	res.set("trace.overhead_ratio", overheadRatio(&blocks))
	if err := writeSpans(filepath.Join(o.workdir, fmt.Sprintf("spans-dbstore-%d.csv", o.seed)), fac, rp.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// reopenAndSweep times OpenBlockStore on the closed store, then checks
// the reopened store's invariants and every block against the model: none
// missing, none with wrong bytes, none back after it was dropped.
func reopenAndSweep(res *result, dir string, m *dbModel, seed uint64, sp spec) float64 {
	t0 := now()
	s, _, err := realloc.OpenBlockStore(realloc.BlockStoreDir(dir))
	recovery := secs(now() - t0)
	if err != nil {
		res.fail("reopen: %v", err)
		return recovery
	}
	defer s.Close()
	if err := s.CheckInvariants(); err != nil {
		res.fail("reopened store invariants: %v", err)
	}
	if s.Len() != len(m.live) {
		res.fail("reopened store holds %d blocks, the model %d", s.Len(), len(m.live))
	}
	buf := make([]byte, sp.Sizes.Max)
	for _, n := range m.live {
		b, err := s.Get(m.names[n])
		if err != nil {
			res.fail("block %s missing after reopen: %v", m.names[n], err)
			continue
		}
		p := buf[:m.size[n]]
		fillPayload(p, seed, m.id[n])
		if int64(len(b)) != m.size[n] || checksum(b) != checksum(p) {
			res.fail("block %s has wrong bytes after reopen", m.names[n])
		}
	}
	for n, pos := range m.pos {
		if pos < 0 && len(res.broken) < 10 {
			if _, err := s.Get(m.names[n]); err == nil {
				res.fail("dropped block %s came back after reopen", m.names[n])
			}
		}
	}
	return recovery
}

// timeWALOpen times wal.Open on a copy of the store's final log.
func timeWALOpen(path string) (float64, error) {
	f, err := (faultfs.OS{}).OpenFile(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	t0 := now()
	_, err = wal.Open(f)
	return secs(now() - t0), err
}

// dbReplay is the dbstore replay's outcome.
type dbReplay struct {
	replayed
	arena                   *arenaStats
	walBytes                int64
	records, logged, fsyncs int64
	mutations, userBytes    int64
	inserts                 int64
}

// walHook mirrors btl's checkpoint hook over the replayed core: every
// placement event becomes a WAL record, and every checkpoint the core
// forces runs the media protocol — arena sync, checkpoint record, WAL
// group-fsync.
type walHook struct {
	w       *wal.Writer
	data    arena.Backend
	t       *tracer
	name    string
	seq     uint64
	err     error
	records int64
}

func (h *walHook) Record(e trace.Event) {
	switch e.Kind {
	case trace.KInsert:
		h.append(wal.Record{Kind: wal.KInsert, ID: uint64(e.ID), Start: e.To, Size: e.Size, Name: h.name})
	case trace.KMove:
		h.append(wal.Record{Kind: wal.KMove, ID: uint64(e.ID), Start: e.To})
	case trace.KDelete:
		h.append(wal.Record{Kind: wal.KDelete, ID: uint64(e.ID)})
	case trace.KCheckpoint:
		h.checkpoint()
	}
}

func (h *walHook) append(r wal.Record) {
	t0 := now()
	err := h.w.Append(r)
	if h.t.on {
		h.t.mergeAppend(t0, now())
	}
	h.records++
	if err != nil && h.err == nil {
		h.err = err
	}
}

func (h *walHook) checkpoint() {
	if err := h.data.Sync(); err != nil && h.err == nil {
		h.err = err
	}
	h.seq++
	h.append(wal.Record{Kind: wal.KCheckpoint, Seq: h.seq, ID: 1})
	if err := h.w.Sync(); err != nil && h.err == nil {
		h.err = err
	}
}

// replayDBStore regenerates the dbstore stream and issues the calls btl
// made below itself: core.New with the store's variant and TrackCells
// over a timing wrapper of a file-backed arena, and a wal.Writer over a
// timing file on the same disk.
func replayDBStore(sp spec, o options, maxNames, calls int, fac []span) (*dbReplay, error) {
	dir := filepath.Join(o.workdir, fmt.Sprintf("replay-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cal := calibrate()
	t := newTracer(6*len(fac) + 1024)
	data, err := arena.Create(filepath.Join(dir, "arena.1.img"))
	if err != nil {
		return nil, err
	}
	st := &arenaStats{}
	ta := newTimedArena(data, t, cal.empty, st)
	defer ta.Close()
	wf, err := (faultfs.OS{Dir: dir}).OpenFile("wal.log")
	if err != nil {
		return nil, err
	}
	tf := &timedFile{File: wf, t: t}
	defer tf.Close()
	w := wal.NewWriter(tf, 0)
	h := &walHook{w: w, data: ta, t: t}
	r, err := core.New(core.Config{Epsilon: 0.25, Variant: core.Checkpointed, Recorder: h, TrackCells: true, Arena: ta})
	if err != nil {
		return nil, err
	}
	traced := make([]bool, calls)
	for _, f := range fac {
		traced[f.op] = true
	}
	m := newDBModel(sp, o.seed, maxNames)
	out := &dbReplay{arena: st}
	buf := make([]byte, sp.Sizes.Max)
	ids := make(map[int32]core.ID, sp.LiveBlocks*2)
	put := func(c dbCall) error {
		p := buf[:c.size]
		fillPayload(p, o.seed, c.id)
		id := core.ID(c.id)
		h.name = m.names[c.name]
		err := timedMutation(t, r, spEngineInsert, func() error { return r.Insert(id, c.size) })
		h.name = ""
		if err != nil {
			return err
		}
		s := t.open(spEngineWrite)
		err = r.Write(id, p)
		t.close(s)
		if err != nil {
			return err
		}
		ids[c.name] = id
		h.append(wal.Record{Kind: wal.KSum, ID: c.id, Sum: checksum(p)})
		return nil
	}
	drop := func(name int32) error {
		id := ids[name]
		delete(ids, name)
		return timedMutation(t, r, spEngineDelete, func() error { return r.Delete(id) })
	}
	checkpoint := func() {
		s := t.open(spEngineCheckpoint)
		r.Space().Checkpoint()
		t.close(s)
		h.checkpoint()
	}
	for i := 0; i < sp.LiveBlocks; i++ {
		if err := put(m.create()); err != nil {
			return nil, err
		}
	}
	checkpoint()
	rec0, fs0, off0 := h.records, tf.fsyncs, w.Offset()
	for i := 0; i < calls; i++ {
		t.on, t.op = traced[i], int32(i)
		c := m.next()
		var err error
		switch c.kind {
		case dbGet:
			s := t.open(spEngineRead)
			_, err = r.Read(ids[c.name], buf[:c.size])
			t.close(s)
		case dbRewrite, dbCreate:
			if c.kind == dbRewrite {
				err = drop(c.name)
			}
			if err == nil {
				err = put(c)
			}
			if t.on {
				out.inserts++
			}
			out.userBytes += c.size
			out.mutations++
		case dbDrop:
			err = drop(c.name)
			out.mutations++
		case dbCheckpoint:
			checkpoint()
		}
		if err == nil {
			err = h.err
		}
		if err != nil {
			return nil, fmt.Errorf("replay call %d: %w", i, err)
		}
	}
	t.on = false
	if err := w.Flush(); err != nil {
		return nil, err
	}
	out.records = h.records - rec0
	out.fsyncs = tf.fsyncs - fs0
	out.logged = w.Offset() - off0
	out.walBytes = w.Offset()
	out.replayed = replayed{spans: t.spans, cal: cal}
	return out, nil
}
