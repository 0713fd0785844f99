package btl

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc64"
	"math/rand/v2"
	"os"
	"strconv"
	"syscall"
	"testing"

	"realloc/internal/faultfs"
	"realloc/internal/trace"
)

// The crashmonkey-style harness: run a deterministic workload against a
// durable store over a fault-injecting MemFS, kill the machine at an
// enumerated (or randomized) fault point, reopen from the surviving
// media, and check the recovered state against a model of what each
// durable checkpoint contained.
//
// The model mirrors WAL replay, not the store's in-memory maps: a tap
// on the trace stream rebuilds the same id-keyed table replay builds
// (the KInsert event fires while Store.pendingName carries the block's
// logical name), snapshotting it at every checkpoint event. Recovery
// must land on a snapshot between the last checkpoint known durable
// (durableFloor) and the last one taken, with every checksummed block's
// payload intact byte for byte.

// mblock is one modeled block.
type mblock struct {
	size   int64
	sum    uint64
	hasSum bool
	data   []byte
}

// crashModel taps the trace stream and snapshots per checkpoint seq.
type crashModel struct {
	st    *Store
	cur   map[uint64]string // id → name, mirrors replay's table keys
	info  map[uint64]mblock // id → payload bookkeeping
	seq   uint64
	snaps map[uint64]map[string]mblock // seq → name-projected state
	// stopErr is the store's sticky error when the workload ended.
	stopErr error
}

func newCrashModel(st *Store) *crashModel {
	return &crashModel{
		st:    st,
		cur:   map[uint64]string{},
		info:  map[uint64]mblock{},
		snaps: map[uint64]map[string]mblock{0: {}},
	}
}

func (m *crashModel) Record(e trace.Event) {
	switch e.Kind {
	case trace.KInsert:
		m.cur[uint64(e.ID)] = m.st.pendingName
		m.info[uint64(e.ID)] = mblock{size: e.Size}
	case trace.KDelete:
		delete(m.cur, uint64(e.ID))
		delete(m.info, uint64(e.ID))
	case trace.KCheckpoint:
		m.seq++
		m.snaps[m.seq] = m.project()
	}
}

// setSum mirrors the KSum record a successful Put appends.
func (m *crashModel) setSum(id uint64, sum uint64, data []byte) {
	b := m.info[id]
	b.sum, b.hasSum, b.data = sum, true, data
	m.info[id] = b
}

// project collapses the id table to names the way recovery does: the
// newest id per name wins (an in-flight update's two copies).
func (m *crashModel) project() map[string]mblock {
	winner := map[string]uint64{}
	for id, name := range m.cur {
		if id > winner[name] {
			winner[name] = id
		}
	}
	out := make(map[string]mblock, len(winner))
	for name, id := range winner {
		b := m.info[id]
		out[name] = mblock{size: b.size, sum: b.sum, hasSum: b.hasSum, data: b.data}
	}
	return out
}

// runWorkload drives a deterministic op mix against a store over fs,
// stopping at the first injected failure. It returns the model and the
// last checkpoint seq known durable when the workload ended.
func runWorkload(t *testing.T, fs *faultfs.MemFS, seed uint64, ops int) (m *crashModel, durableFloor, lastSeq uint64) {
	t.Helper()
	m = newCrashModel(nil)
	st, err := New(Config{FS: fs, Recorder: m})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m.st = st // the tap reads pendingName off the store at event time

	rng := rand.New(rand.NewPCG(seed, 0xc4a54))
	var names []string
	nameN := 0
	inj := fs.Injector()
	for op := 0; op < ops; op++ {
		var err error
		switch k := rng.IntN(10); {
		case k < 5 || len(names) == 0:
			name := fmt.Sprintf("b%04d", nameN)
			nameN++
			data := make([]byte, 8+rng.IntN(113))
			for i := range data {
				data[i] = byte(rng.IntN(256))
			}
			if err = st.Put(name, data); err == nil {
				names = append(names, name)
				if id, ok := st.byName[name]; ok {
					m.setSum(uint64(id), crc64.Checksum(data, crcTable), data)
				}
			}
		case k < 7:
			err = st.Update(names[rng.IntN(len(names))], int64(8+rng.IntN(113)))
		case k < 8:
			i := rng.IntN(len(names))
			if err = st.Drop(names[i]); err == nil {
				names = append(names[:i], names[i+1:]...)
			}
		default:
			st.Checkpoint()
			// An explicit checkpoint does not flow through the trace
			// stream; bring the model up to the store's seq (no state
			// changed since the snapshot instant, so projecting now is
			// exact).
			for m.seq < st.seq {
				m.seq++
				m.snaps[m.seq] = m.project()
			}
			err = st.Err()
		}
		if err != nil || st.Err() != nil {
			break
		}
		if !inj.Dropping() {
			durableFloor = st.seq
		}
	}
	m.stopErr = st.Err()
	return m, durableFloor, m.seq
}

// verifyRecovery crashes the media, reopens (retrying through faults
// that fire during recovery itself), and checks the recovered state is
// exactly one of the model's durable snapshots.
func verifyRecovery(t *testing.T, fs *faultfs.MemFS, m *crashModel, durableFloor, lastSeq uint64, tag string) {
	t.Helper()
	fs.Crash()
	var st *Store
	var rep RecoveryReport
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		st, rep, err = Open(Config{FS: fs})
		if err == nil {
			break
		}
		fs.Crash() // a fault fired mid-recovery: the machine dies again
	}
	if err != nil {
		t.Fatalf("%s: recovery never succeeded: %v", tag, err)
	}
	defer st.Close()
	if len(rep.Corrupt) != 0 {
		t.Fatalf("%s: corrupt blocks after successful recovery: %v", tag, rep.Corrupt)
	}
	if rep.Seq < durableFloor {
		t.Fatalf("%s: recovered to seq %d, below durable floor %d", tag, rep.Seq, durableFloor)
	}

	got := map[string]mblock{}
	for name, id := range st.byName {
		b := mblock{}
		if ext, ok := st.realloc.Extent(id); ok {
			b.size = ext.Size
		}
		if sum, ok := st.sums[id]; ok {
			b.sum, b.hasSum = sum, true
		}
		got[name] = b
	}

	// Recovery's own checkpoints can push rep.Seq past the workload's
	// last seq without changing the block set, so match the recovered
	// state against the whole durable window.
	matched := uint64(0)
	found := false
	for q := durableFloor; q <= lastSeq && !found; q++ {
		if snap, ok := m.snaps[q]; ok && stateEqual(snap, got) {
			matched, found = q, true
		}
	}
	if !found {
		t.Fatalf("%s: recovered state (%d blocks, seq %d) matches no durable snapshot in [%d,%d]",
			tag, len(got), rep.Seq, durableFloor, lastSeq)
	}

	// Byte-level payload verification against the matched snapshot.
	for name, want := range m.snaps[matched] {
		if !want.hasSum {
			continue
		}
		data, err := st.Get(name)
		if err != nil {
			t.Fatalf("%s: get %q after recovery: %v", tag, name, err)
		}
		if !bytes.Equal(data, want.data) {
			t.Fatalf("%s: payload %q diverged after recovery at seq %d", tag, name, matched)
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants after recovery: %v", tag, err)
	}
}

// stateEqual compares a model snapshot with a recovered state: same
// names, sizes, and checksum status.
func stateEqual(want, got map[string]mblock) bool {
	if len(want) != len(got) {
		return false
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok || g.size != w.size || g.hasSum != w.hasSum {
			return false
		}
		if w.hasSum && g.sum != w.sum {
			return false
		}
	}
	return true
}

// crashSchedule runs one workload under one fault plan end to end.
func crashSchedule(t *testing.T, plan []faultfs.Fault, seed uint64, ops int, tag string) {
	t.Helper()
	fs := faultfs.NewMemFS(faultfs.NewInjector(plan...))
	m, floor, last := runWorkload(t, fs, seed, ops)
	verifyRecovery(t, fs, m, floor, last, tag)
}

// TestCrashAtEveryFaultPoint enumerates the workload's entire fault
// space: a baseline run counts every media write and sync the store
// issues, then the same workload is killed at each one — crash-at-write
// and torn-write for every write ordinal, dropped-fsync for every sync
// ordinal — and must recover to a durable checkpoint every time.
func TestCrashAtEveryFaultPoint(t *testing.T) {
	const seed, ops = 42, 60
	baseline := faultfs.NewMemFS(nil)
	mb, floorB, lastB := runWorkload(t, baseline, seed, ops)
	verifyRecovery(t, baseline, mb, floorB, lastB, "baseline")
	writes := baseline.Injector().Writes()
	syncs := baseline.Injector().Syncs()
	if writes < 10 || syncs < 5 {
		t.Fatalf("workload too small to sweep: %d writes, %d syncs", writes, syncs)
	}

	schedules := 0
	for i := 1; i <= writes; i++ {
		crashSchedule(t, []faultfs.Fault{{Kind: faultfs.CrashAtWrite, N: i}}, seed, ops,
			fmt.Sprintf("crash@write%d", i))
		crashSchedule(t, []faultfs.Fault{{Kind: faultfs.TornWrite, N: i, TearBytes: int64(1 + i*7%61)}}, seed, ops,
			fmt.Sprintf("torn@write%d", i))
		schedules += 2
	}
	for j := 1; j <= syncs; j++ {
		crashSchedule(t, []faultfs.Fault{{Kind: faultfs.DropSync, N: j}}, seed, ops,
			fmt.Sprintf("dropsync@%d", j))
		schedules++
	}
	t.Logf("fault-point sweep: %d schedules over %d writes + %d syncs", schedules, writes, syncs)
}

// TestNoSpaceAtEveryWrite fills the disk at each write of the
// fault-point sweep's workload in turn. The store must stop with a
// sticky ENOSPC error, never a panic, and recovery must land inside the
// durable window. Each schedule then crashes and recovers once more:
// the second recovery reads the arena generation the first one
// created, so it also checks that recovery made that file's directory
// entry durable before its checkpoint named it.
func TestNoSpaceAtEveryWrite(t *testing.T) {
	const seed, ops = 42, 60
	baseline := faultfs.NewMemFS(nil)
	runWorkload(t, baseline, seed, ops)
	writes := baseline.Injector().Writes()
	for i := 1; i <= writes; i++ {
		tag := fmt.Sprintf("nospace@write%d", i)
		fs := faultfs.NewMemFS(faultfs.NewInjector(faultfs.Fault{Kind: faultfs.NoSpace, N: i}))
		m, floor, last := runWorkload(t, fs, seed, ops)
		if !errors.Is(m.stopErr, syscall.ENOSPC) {
			t.Fatalf("%s: store stopped with %v, want a sticky ENOSPC", tag, m.stopErr)
		}
		verifyRecovery(t, fs, m, floor, last, tag)
		verifyRecovery(t, fs, m, floor, last, tag+"/again")
	}
	t.Logf("full-disk sweep: %d schedules", writes)
}

// TestRandomCrashSchedules is the randomized side of the harness: fault
// plans drawn from seeds (multiple faults per run, random workloads).
// PR CI runs a bounded deterministic subset; the nightly soak scales it
// through REALLOC_SOAK_OPS (matched by its -run 'TestSoak' regex via
// TestSoakCrashSchedules below).
func TestRandomCrashSchedules(t *testing.T) {
	runRandomSchedules(t, 60)
}

// TestSoakCrashSchedules scales the randomized sweep for the nightly
// soak: REALLOC_SOAK_OPS/1000 schedules (min 200).
func TestSoakCrashSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	n := 200
	if v := os.Getenv("REALLOC_SOAK_OPS"); v != "" {
		ops, err := strconv.Atoi(v)
		if err != nil || ops < 1 {
			t.Fatalf("bad REALLOC_SOAK_OPS %q: %v", v, err)
		}
		if s := ops / 1000; s > n {
			n = s
		}
	}
	runRandomSchedules(t, n)
}

func runRandomSchedules(t *testing.T, n int) {
	t.Helper()
	// Budget faults against a typical run's fault space; plans that
	// address beyond it simply never fire (the workload then completes
	// and the final crash is a clean one).
	const maxWrites, maxSyncs = 160, 120
	for i := 0; i < n; i++ {
		seed := uint64(1000 + i)
		plan := faultfs.RandomPlan(seed, maxWrites, maxSyncs)
		crashSchedule(t, plan, seed, 40+int(seed%40),
			fmt.Sprintf("random#%d(%v)", i, plan))
	}
	t.Logf("randomized sweep: %d schedules", n)
}
