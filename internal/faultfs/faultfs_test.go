package faultfs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestMemFSDurabilityModel(t *testing.T) {
	fs := NewMemFS(nil)
	f, err := fs.OpenFile("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	// Unsynced writes are volatile: a crash discards them.
	fs.Crash()
	g, _ := fs.OpenFile("a")
	if sz, _ := g.Size(); sz != 0 {
		t.Fatalf("unsynced write survived crash: size %d", sz)
	}
	// Synced writes are durable.
	if _, err := g.WriteAt([]byte("world"), 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt([]byte("XYZ"), 5); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	h, _ := fs.OpenFile("a")
	buf := make([]byte, 8)
	n, err := h.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf[:n]) != "world" {
		t.Fatalf("durable image %q, want %q", buf[:n], "world")
	}
	// Stale handles fail after the crash.
	if _, err := g.WriteAt([]byte("x"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("stale handle write: %v", err)
	}
	if err := g.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("stale handle sync: %v", err)
	}
}

func TestInjectorCrashAtWrite(t *testing.T) {
	fs := NewMemFS(NewInjector(Fault{Kind: CrashAtWrite, N: 2}))
	f, _ := fs.OpenFile("a")
	if err := fs.SyncDir(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("one"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("two"), 3); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("write 2: %v", err)
	}
	// Wedged: everything after fails.
	if _, err := f.WriteAt([]byte("three"), 6); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after wedge: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after wedge: %v", err)
	}
	if !fs.Injector().Wedged() {
		t.Fatal("injector not wedged")
	}
	// The faulted write never reached even the volatile image.
	fs.Crash()
	g, _ := fs.OpenFile("a")
	if sz, _ := g.Size(); sz != 0 {
		t.Fatalf("size after crash: %d", sz)
	}
}

func TestInjectorTornWrite(t *testing.T) {
	fs := NewMemFS(NewInjector(Fault{Kind: TornWrite, N: 2, TearBytes: 3}))
	f, _ := fs.OpenFile("a")
	if err := fs.SyncDir(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("base"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("ABCDEF"), 4); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("torn write: %v", err)
	}
	fs.Crash()
	g, _ := fs.OpenFile("a")
	buf := make([]byte, 16)
	n, _ := g.ReadAt(buf, 0)
	if !bytes.Equal(buf[:n], []byte("baseABC")) {
		t.Fatalf("durable image %q, want %q", buf[:n], "baseABC")
	}
}

func TestTornWriteAfterDropPersistsNothing(t *testing.T) {
	// Once a sync has been dropped the platter is frozen: a later torn
	// write must degenerate to a plain crash, not smuggle a fragment
	// into the durable image past the dropped syncs.
	fs := NewMemFS(NewInjector(
		Fault{Kind: DropSync, N: 2},
		Fault{Kind: TornWrite, N: 2, TearBytes: 3},
	))
	f, _ := fs.OpenFile("a")
	if err := fs.SyncDir(); err != nil { // sync 1: effective
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("base"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // dropped
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("ABCDEF"), 4); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("torn write after drop: %v", err)
	}
	fs.Crash()
	g, _ := fs.OpenFile("a")
	if sz, _ := g.Size(); sz != 0 {
		t.Fatalf("durable size %d, want 0 (nothing since the drop persists)", sz)
	}
}

func TestInjectorDropSyncIsGlobal(t *testing.T) {
	fs := NewMemFS(NewInjector(Fault{Kind: DropSync, N: 3}))
	a, _ := fs.OpenFile("a")
	b, _ := fs.OpenFile("b")
	if err := fs.SyncDir(); err != nil { // sync 1: effective
		t.Fatal(err)
	}
	if _, err := a.WriteAt([]byte("aa"), 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil { // sync 2: effective
		t.Fatal(err)
	}
	if _, err := a.WriteAt([]byte("AA"), 2); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil { // sync 3: dropped, silently
		t.Fatal(err)
	}
	if _, err := b.WriteAt([]byte("bb"), 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil { // sync 4: dropped too — global
		t.Fatal(err)
	}
	if !fs.Injector().Dropping() {
		t.Fatal("injector not dropping")
	}
	fs.Crash()
	ra, _ := fs.OpenFile("a")
	rb, _ := fs.OpenFile("b")
	if sz, _ := ra.Size(); sz != 2 {
		t.Fatalf("a durable size %d, want 2 (post-drop sync must not persist)", sz)
	}
	if sz, _ := rb.Size(); sz != 0 {
		t.Fatalf("b durable size %d, want 0 (drop is global)", sz)
	}
}

func TestInjectorTransientEIO(t *testing.T) {
	fs := NewMemFS(NewInjector(Fault{Kind: TransientEIO, N: 1}))
	f, _ := fs.OpenFile("a")
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, syscall.EIO) {
		t.Fatalf("first write: %v", err)
	}
	// The retry succeeds and the fault does not re-fire.
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("retried write: %v", err)
	}
	if got := fs.Injector().Fired(); got != 1 {
		t.Fatalf("fired %d faults, want 1", got)
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	a := RandomPlan(7, 100, 10)
	b := RandomPlan(7, 100, 10)
	if len(a) != len(b) {
		t.Fatalf("plan lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan[%d]: %v vs %v", i, a[i], b[i])
		}
	}
	if c := RandomPlan(8, 100, 10); len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical plans")
		}
	}
}

func TestOSRoundTrip(t *testing.T) {
	fs := OS{Dir: t.TempDir()}
	f, err := fs.OpenFile("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("persist"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(); err != nil {
		t.Fatal(err)
	}
	if sz, err := f.Size(); err != nil || sz != 7 {
		t.Fatalf("size %d %v", sz, err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "pers" {
		t.Fatalf("read %q", buf)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("data"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(fs.Dir, "data")); !os.IsNotExist(err) {
		t.Fatalf("file not removed: %v", err)
	}
}

// TestCrashDropsUnsyncedDirectoryEntries: a file created since the last
// SyncDir is gone after a crash, even if its own contents were synced;
// files the directory sync covered survive.
func TestCrashDropsUnsyncedDirectoryEntries(t *testing.T) {
	fs := NewMemFS(nil)
	old, _ := fs.OpenFile("old")
	if _, err := old.WriteAt([]byte("kept"), 0); err != nil {
		t.Fatal(err)
	}
	if err := old.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(); err != nil {
		t.Fatal(err)
	}
	young, _ := fs.OpenFile("young")
	if _, err := young.WriteAt([]byte("lost"), 0); err != nil {
		t.Fatal(err)
	}
	if err := young.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	if n := fs.DurableLen("old"); n != 4 {
		t.Fatalf("dir-synced file: durable length %d, want 4", n)
	}
	if err := fs.Remove("young"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("file created after the last SyncDir survived the crash: %v", err)
	}
	if got := fs.Injector().Syncs(); got != 3 {
		t.Fatalf("SyncDir must count as a sync: %d syncs, want 3", got)
	}
}

// TestNoSpace: from the Nth write on, every write fails with ENOSPC and
// nothing lands; syncs persist what landed before; a crash clears the
// condition.
func TestNoSpace(t *testing.T) {
	fs := NewMemFS(NewInjector(Fault{Kind: NoSpace, N: 2}))
	f, _ := fs.OpenFile("a")
	if err := fs.SyncDir(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("base"), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if n, err := f.WriteAt([]byte("more"), 4); n != 0 || !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("write on a full disk: %d, %v", n, err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync on a full disk: %v", err)
	}
	if sz, _ := f.Size(); sz != 4 {
		t.Fatalf("size %d after failed writes, want 4", sz)
	}
	fs.Crash()
	g, _ := fs.OpenFile("a")
	if _, err := g.WriteAt([]byte("room"), 4); err != nil {
		t.Fatalf("write after the crash: %v", err)
	}
	if got := fs.Injector().Fired(); got != 1 {
		t.Fatalf("fired %d faults, want 1", got)
	}
}

// TestBothRunsEveryLeg: Both runs both legs even when the first fails
// and joins their errors; OS runs them on two goroutines (the race
// detector sees this test). MemFS runs them first-then-second, so the
// Injector addresses the second leg's write by a fixed ordinal.
func TestBothRunsEveryLeg(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for name, fs := range map[string]FS{"memfs": NewMemFS(nil), "os": OS{Dir: t.TempDir()}} {
		ran := [2]bool{}
		err := fs.Both(func() error { ran[0] = true; return errA }, func() error { ran[1] = true; return errB })
		if !ran[0] || !ran[1] || !errors.Is(err, errA) || !errors.Is(err, errB) {
			t.Fatalf("%s: ran %v, err %v; want both legs run and both errors joined", name, ran, err)
		}
		if err := fs.Both(func() error { return nil }, func() error { return nil }); err != nil {
			t.Fatalf("%s: two clean legs returned %v", name, err)
		}
	}

	fs := NewMemFS(NewInjector(Fault{Kind: CrashAtWrite, N: 2}))
	leg := func(name string) func() error {
		f, _ := fs.OpenFile(name)
		return func() error {
			if _, err := f.WriteAt([]byte(name), 0); err != nil {
				return err
			}
			return f.Sync()
		}
	}
	if err := fs.Both(leg("first"), leg("second")); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("crash at the second leg's write: %v", err)
	}
	if fs.DurableLen("first") != 5 || fs.DurableLen("second") != 0 {
		t.Fatalf("durable lengths %d and %d, want the first leg durable and the second not",
			fs.DurableLen("first"), fs.DurableLen("second"))
	}
}
