package btl

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"realloc/internal/faultfs"
	"realloc/internal/telemetry"
)

// payload builds a distinctive byte pattern per name/size.
func payload(name string, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(len(name)*31 + i*7)
	}
	return p
}

func TestOpenNeedsMedia(t *testing.T) {
	if _, _, err := Open(Config{}); err == nil {
		t.Fatal("Open without Dir or FS must fail")
	}
}

func TestDurableRoundTripDir(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("blk%02d", i)
		want[name] = payload(name, 16+i*5)
		if err := s.Put(name, want[name]); err != nil {
			t.Fatal(err)
		}
	}
	s.Checkpoint()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rep, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != len(want) {
		t.Fatalf("recovered %d of %d", rep.Recovered, len(want))
	}
	for name, data := range want {
		got, err := s2.Get(name)
		if err != nil {
			t.Fatalf("get %q: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("payload %q diverged after reopen", name)
		}
	}
	if err := s2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The reopened store is a normal store: mutate, checkpoint, reopen
	// again.
	if err := s2.Put("extra", payload("extra", 33)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Drop("blk00"); err != nil {
		t.Fatal(err)
	}
	s2.Checkpoint()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, rep, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != len(want) {
		t.Fatalf("second reopen recovered %d, want %d", rep.Recovered, len(want))
	}
	if _, err := s3.Get("blk00"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("dropped block resurrected: %v", err)
	}
	if got, err := s3.Get("extra"); err != nil || !bytes.Equal(got, payload("extra", 33)) {
		t.Fatalf("extra block: %v", err)
	}
	_ = s3.Close()
}

// TestDurableReserveBeyondWrittenPages: a block reserved past every
// written page grows the arena without dirtying any page, so only the
// checkpoint's file extension puts its extent inside the image that
// recovery bounds-checks.
func TestDurableReserveBeyondWrittenPages(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("small", payload("small", 16)); err != nil {
		t.Fatal(err)
	}
	if err := s.Reserve("big", 1<<20); err != nil {
		t.Fatal(err)
	}
	s.Checkpoint()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rep, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rep.Recovered != 2 {
		t.Fatalf("recovered %d blocks, want 2", rep.Recovered)
	}
	if ext, ok := s2.Lookup("big"); !ok || ext.Size != 1<<20 {
		t.Fatalf("reserved block after reopen: %v, %v", ext, ok)
	}
	if got, err := s2.Get("small"); err != nil || !bytes.Equal(got, payload("small", 16)) {
		t.Fatalf("small block after reopen: %v", err)
	}
}

func TestOpenEmptyDirYieldsEmptyStore(t *testing.T) {
	s, rep, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 0 {
		t.Fatalf("recovered %d from nothing", rep.Recovered)
	}
	if err := s.Put("a", payload("a", 8)); err != nil {
		t.Fatal(err)
	}
	_ = s.Close()
}

func TestDurableCrashLandsOnLastCheckpoint(t *testing.T) {
	fs := faultfs.NewMemFS(nil)
	s, err := New(Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("keep", payload("keep", 40)); err != nil {
		t.Fatal(err)
	}
	s.Checkpoint()
	// This Put's insert may force another checkpoint (durable), but the
	// payload write and its checksum record stay in the volatile tail.
	if err := s.Put("lost", payload("lost", 24)); err != nil {
		t.Fatal(err)
	}
	lastSeq := s.seq
	fs.Crash()

	s2, rep, err := Open(Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	// Every completed checkpoint group-fsyncs the WAL, so replay lands
	// exactly on the last one taken before the crash.
	if rep.Seq != lastSeq {
		t.Fatalf("recovered to seq %d, want %d", rep.Seq, lastSeq)
	}
	if got, err := s2.Get("keep"); err != nil || !bytes.Equal(got, payload("keep", 40)) {
		t.Fatalf("checkpointed block: %v", err)
	}
	// "lost" was placed before the last checkpoint but its payload never
	// became durable: if the placement survived, it must have been
	// recovered as unverified — never with the payload's checksum.
	if id, ok := s2.byName["lost"]; ok {
		if _, hasSum := s2.sums[id]; hasSum {
			t.Fatal("unsynced payload recovered with a checksum")
		}
	}
	if err := s2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	_ = s2.Close()
}

func TestDurableCrashRecoverInPlace(t *testing.T) {
	fs := faultfs.NewMemFS(nil)
	tel := &telemetry.Set{}
	s, err := New(Config{FS: fs, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", payload("a", 12)); err != nil {
		t.Fatal(err)
	}
	s.Checkpoint()

	// Same-store recovery: Crash marks the process dead, fs.Crash kills
	// the media's volatile state, Recover reads the media back.
	s.Crash()
	fs.Crash()
	rep, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 1 || rep.Seq == 0 {
		t.Fatalf("report: %+v", rep)
	}
	if got, err := s.Get("a"); err != nil || !bytes.Equal(got, payload("a", 12)) {
		t.Fatalf("after in-place recovery: %v", err)
	}
	// Recover-then-reuse: the recovered store keeps working.
	if err := s.Put("b", payload("b", 9)); err != nil {
		t.Fatal(err)
	}
	s.Checkpoint()
	s.Crash()
	fs.Crash()
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("len after second recovery: %d", s.Len())
	}
	var rec, fsync telemetry.HistSnapshot
	tel.Recovery.AddTo(&rec)
	tel.WALFsync.AddTo(&fsync)
	if rec.Count != 2 {
		t.Fatalf("recovery durations recorded %d times, want 2", rec.Count)
	}
	if fsync.Count == 0 {
		t.Fatal("WAL fsync latencies not recorded")
	}
	_ = s.Close()
}

func TestRecoverSentinelAndCrashIdempotence(t *testing.T) {
	for _, durable := range []bool{false, true} {
		cfg := Config{}
		if durable {
			cfg.FS = faultfs.NewMemFS(nil)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Recover before any crash: the sentinel, not a panic or a
		// silent rebuild.
		if _, err := s.Recover(); !errors.Is(err, ErrNotCrashed) {
			t.Fatalf("durable=%v: Recover without crash: %v", durable, err)
		}
		_ = s.Reserve("a", 5)
		s.Crash()
		s.Crash() // double crash is a no-op
		if err := s.Reserve("b", 5); !errors.Is(err, ErrCrashed) {
			t.Fatalf("durable=%v: op after double crash: %v", durable, err)
		}
		if _, err := s.Recover(); err != nil {
			t.Fatalf("durable=%v: recover after double crash: %v", durable, err)
		}
		if _, err := s.Recover(); !errors.Is(err, ErrNotCrashed) {
			t.Fatalf("durable=%v: second Recover: %v", durable, err)
		}
		_ = s.Close()
	}
}

func TestRecoverEmptyDurableSet(t *testing.T) {
	// Crash before the first checkpoint: the durable set is empty, and
	// recovery must yield a working empty store rather than fail.
	fs := faultfs.NewMemFS(nil)
	s, err := New(Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("vanishes", payload("vanishes", 10)); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	fs.Crash()
	rep, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 0 {
		t.Fatalf("recovered %d from an empty durable set", rep.Recovered)
	}
	if err := s.Put("fresh", payload("fresh", 10)); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("fresh"); err != nil || !bytes.Equal(got, payload("fresh", 10)) {
		t.Fatalf("store unusable after empty recovery: %v", err)
	}
	_ = s.Close()
}

func TestDurableStickyIOError(t *testing.T) {
	// A dropped-then-wedged media: after the injected crash fires on a
	// WAL write, every subsequent op must refuse with the latched cause.
	fs := faultfs.NewMemFS(faultfs.NewInjector(faultfs.Fault{Kind: faultfs.CrashAtWrite, N: 1}))
	s, err := New(Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", payload("a", 8)); err != nil {
		t.Fatal(err) // Put only buffers WAL records; no write happens yet
	}
	s.Checkpoint() // arena sync persists nothing to fault (sync path), WAL flush hits the fault
	if s.Err() == nil {
		t.Fatal("checkpoint over wedged media must latch an error")
	}
	if err := s.Put("b", payload("b", 8)); !errors.Is(err, faultfs.ErrInjectedCrash) {
		t.Fatalf("op after latched failure: %v", err)
	}
	if _, err := s.Get("a"); err == nil {
		t.Fatal("reads must also refuse after a durable failure")
	}
	// The modeled machine reboots; the store recovers from media.
	s.Crash()
	fs.Crash()
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if s.Err() != nil {
		t.Fatalf("sticky error survived recovery: %v", s.Err())
	}
	_ = s.Close()
}

func TestDurableDeamortizedVariant(t *testing.T) {
	// Durable mode composes with the Section 3.3 core.
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, Deamortized: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := s.Put(fmt.Sprintf("d%02d", i), payload("d", 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Checkpoint()
	_ = s.Close()
	s2, rep, err := Open(Config{Dir: dir, Deamortized: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != 30 {
		t.Fatalf("recovered %d", rep.Recovered)
	}
	_ = s2.Close()
}

// arenaWriteCounter is a MemFS whose arena image handles count their
// writes: one per dirty run a Sync writes back.
type arenaWriteCounter struct {
	*faultfs.MemFS
	writes int
}

func (c *arenaWriteCounter) OpenFile(name string) (faultfs.File, error) {
	f, err := c.MemFS.OpenFile(name)
	if err != nil || !strings.HasPrefix(name, "arena.") {
		return f, err
	}
	return countedFile{File: f, writes: &c.writes}, nil
}

type countedFile struct {
	faultfs.File
	writes *int
}

func (f countedFile) WriteAt(p []byte, off int64) (int, error) {
	*f.writes++
	return f.File.WriteAt(p, off)
}

// TestDurableGetWritesNothingBack: Get and CheckInvariants read through
// the arena's read-only view, so a checkpoint after nothing but reads
// writes no arena page; one Put makes the next checkpoint write again.
func TestDurableGetWritesNothingBack(t *testing.T) {
	fs := &arenaWriteCounter{MemFS: faultfs.NewMemFS(nil)}
	s, err := New(Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("g%02d", i)
		if err := s.Put(name, payload(name, 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Checkpoint()
	fs.writes = 0
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("g%02d", i)
		if got, err := s.Get(name); err != nil || !bytes.Equal(got, payload(name, 100+i)) {
			t.Fatalf("get %q: %v", name, err)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s.Checkpoint()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if fs.writes != 0 {
		t.Fatalf("a checkpoint after only reads wrote %d arena runs, want 0", fs.writes)
	}
	if err := s.Put("new", payload("new", 10)); err != nil {
		t.Fatal(err)
	}
	s.Checkpoint()
	if fs.writes == 0 {
		t.Fatal("a checkpoint after a Put wrote no arena page")
	}
}
