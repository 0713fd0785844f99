package arena

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"realloc/internal/faultfs"
)

func backends(t *testing.T) map[string]Backend {
	t.Helper()
	out := make(map[string]Backend)
	for _, k := range []Kind{Metered, Heap, Mmap} {
		b, err := New(k)
		if err != nil {
			t.Fatalf("New(%v): %v", k, err)
		}
		out[k.String()] = b
	}
	b, err := Create(filepath.Join(t.TempDir(), "arena.img"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	out[File.String()] = b
	return out
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{Metered, Heap, Mmap} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("disk"); err == nil {
		t.Fatal("ParseKind accepted an unknown name")
	}
}

// TestCopyCounting: every backend counts the same moved volume; only
// real backends move bytes.
func TestCopyCounting(t *testing.T) {
	for name, b := range backends(t) {
		b.Copy(100, 0, 8)
		b.Copy(0, 100, 8)
		c := b.Counters()
		if c.BytesMoved != 16 || c.Copies != 2 {
			t.Errorf("%s: counters = %+v, want BytesMoved=16 Copies=2", name, c)
		}
		if err := b.Close(); err != nil {
			t.Errorf("%s: Close: %v", name, err)
		}
	}
}

// TestPayloadRoundTrip: bytes written through Bytes survive a chain of
// copies, including self-overlapping ones (memmove semantics).
func TestPayloadRoundTrip(t *testing.T) {
	for name, b := range backends(t) {
		if !b.Real() {
			if b.Bytes(0, 8) != nil {
				t.Errorf("%s: metered Bytes must be nil", name)
			}
			continue
		}
		payload := []byte("cost-oblivious")
		n := int64(len(payload))
		copy(b.Bytes(10, n), payload)
		b.Copy(500, 10, n)  // disjoint move
		b.Copy(495, 500, n) // overlap left by 5
		b.Copy(499, 495, n) // overlap right by 4
		if got := b.Bytes(499, n); !bytes.Equal(got, payload) {
			t.Errorf("%s: payload corrupted: %q", name, got)
		}
		if err := b.Close(); err != nil {
			t.Errorf("%s: Close: %v", name, err)
		}
	}
}

// TestGrowthPreservesPrefix: growth (slice regrow, mmap remap) must
// keep every previously written byte.
func TestGrowthPreservesPrefix(t *testing.T) {
	for name, b := range backends(t) {
		if !b.Real() {
			continue
		}
		copy(b.Bytes(0, 4), "abcd")
		b.Ensure(1 << 20) // force at least one growth step
		if got := b.Bytes(0, 4); !bytes.Equal(got, []byte("abcd")) {
			t.Errorf("%s: growth lost prefix: %q", name, got)
		}
		copy(b.Bytes(1<<20-2, 2), "zz")
		if got := b.Bytes(1<<20-2, 2); !bytes.Equal(got, []byte("zz")) {
			t.Errorf("%s: high write lost: %q", name, got)
		}
		if err := b.Close(); err != nil {
			t.Errorf("%s: Close: %v", name, err)
		}
	}
}

// TestSyncNoop: Sync on memory-only backends is a nil no-op, on every
// backend it errors (not panics) after Close.
func TestSyncNoop(t *testing.T) {
	for name, b := range backends(t) {
		if err := b.Sync(); err != nil {
			t.Errorf("%s: Sync on open backend: %v", name, err)
		}
		if err := b.Close(); err != nil {
			t.Errorf("%s: Close: %v", name, err)
		}
	}
}

// TestErrClosed: every backend fails fast after Close — payload access
// panics with the sentinel, Sync returns it, Close stays idempotent.
func TestErrClosed(t *testing.T) {
	for name, b := range backends(t) {
		if err := b.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		if err := b.Close(); err != nil {
			t.Errorf("%s: second Close: %v", name, err)
		}
		if err := b.Sync(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: Sync after Close = %v, want ErrClosed", name, err)
		}
		for op, fn := range map[string]func(){
			"Ensure": func() { b.Ensure(8) },
			"Copy":   func() { b.Copy(8, 0, 8) },
			"Bytes":  func() { b.Bytes(0, 8) },
		} {
			func() {
				defer func() {
					if r := recover(); r != ErrClosed {
						t.Errorf("%s: %s after Close panicked %v, want ErrClosed", name, op, r)
					}
				}()
				fn()
				t.Errorf("%s: %s after Close did not panic", name, op)
			}()
		}
	}
}

// TestFileKind: the file backend needs a path, is not a ParseKind name
// (the benchmark backend panels stay memory-only), and reports itself.
func TestFileKind(t *testing.T) {
	if _, err := New(File); err == nil {
		t.Fatal("New(File) must demand a path")
	}
	if _, err := ParseKind("file"); err == nil {
		t.Fatal("ParseKind must not accept \"file\"")
	}
	if File.String() != "file" {
		t.Fatalf("File.String() = %q", File.String())
	}
}

// reopen loads the arena file at path again through FromFile over the
// real file system.
func reopen(t *testing.T, path string) Backend {
	t.Helper()
	f, err := faultfs.OS{Dir: filepath.Dir(path)}.OpenFile(filepath.Base(path))
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromFile(f)
	if err != nil {
		t.Fatalf("FromFile: %v", err)
	}
	return b
}

// TestFilePersistence: bytes written before Sync survive Close and
// reopen via FromFile; bytes written after the last Sync may or may
// not — here, with no crash in between, Close alone must not lose
// synced data.
func TestFilePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arena.img")
	b, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind() != File || !b.Real() {
		t.Fatalf("file arena kind=%v real=%v", b.Kind(), b.Real())
	}
	payload := []byte("durable payload bytes")
	n := int64(len(payload))
	copy(b.Bytes(100, n), payload)
	b.Copy(5000, 100, n) // cross-page move, forces growth
	if err := b.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := reopen(t, path)
	defer r.Close()
	if got := r.Bytes(100, n); !bytes.Equal(got, payload) {
		t.Fatalf("original extent lost: %q", got)
	}
	if got := r.Bytes(5000, n); !bytes.Equal(got, payload) {
		t.Fatalf("moved extent lost: %q", got)
	}
}

// TestFileGrowthPreservesAcrossReopen: growth moves the in-memory image
// and extends the file; written bytes on both sides of the growth must
// survive a sync/reopen cycle.
func TestFileGrowthPreservesAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arena.img")
	b, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(b.Bytes(0, 4), "abcd")
	b.Ensure(1 << 20)
	copy(b.Bytes(1<<20-2, 2), "zz")
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	r := reopen(t, path)
	defer r.Close()
	if got := r.Bytes(0, 4); !bytes.Equal(got, []byte("abcd")) {
		t.Fatalf("prefix lost: %q", got)
	}
	if got := r.Bytes(1<<20-2, 2); !bytes.Equal(got, []byte("zz")) {
		t.Fatalf("high bytes lost: %q", got)
	}
	if st, err := os.Stat(path); err != nil || st.Size() < 1<<20 {
		t.Fatalf("arena file did not grow: %v, %v", st, err)
	}
}

// TestFromFileOverMemFS: the fault-injection seam — a file arena over
// an in-memory fault file only persists what Sync pushed before a
// crash.
func TestFromFileOverMemFS(t *testing.T) {
	fs := faultfs.NewMemFS(nil)
	f, err := fs.OpenFile("arena")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(); err != nil {
		t.Fatal(err)
	}
	b, err := FromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	copy(b.Bytes(0, 6), "synced")
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	copy(b.Bytes(6, 8), "volatile")

	fs.Crash()
	f2, err := fs.OpenFile("arena")
	if err != nil {
		t.Fatal(err)
	}
	r, err := FromFile(f2)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Bytes(0, 6); !bytes.Equal(got, []byte("synced")) {
		t.Fatalf("synced bytes lost: %q", got)
	}
	if got := r.Bytes(6, 8); bytes.Equal(got, []byte("volatile")) {
		t.Fatal("unsynced bytes survived a crash")
	}
}

// TestDurableImageProperty: random copies, writes through Bytes,
// growth and Syncs over a MemFS file. After every Sync the file holds
// the arena's bytes exactly, at the arena's length; after a crash at
// any point, FromFile loads exactly the last synced image.
func TestDurableImageProperty(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xa4e4a))
		fs := faultfs.NewMemFS(nil)
		open := func() Backend {
			f, err := fs.OpenFile("arena")
			if err != nil {
				t.Fatal(err)
			}
			b, err := FromFile(f)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		b := open()
		if err := fs.SyncDir(); err != nil {
			t.Fatal(err)
		}
		var model, synced []byte // the arena's bytes; the last synced image
		extend := func(n int64) {
			if n > int64(len(model)) {
				model = append(model, make([]byte, n-int64(len(model)))...)
			}
		}
		// Addresses stay below limit, which grows now and then, so that
		// ops revisit pages (some dirty, some clean) across Syncs.
		limit := int64(3 * pageSize)
		for op := 0; op < 300; op++ {
			switch k := rng.IntN(20); {
			case k < 7: // relocation, overlapping or not
				size := 1 + rng.Int64N(2*pageSize)
				dst, src := rng.Int64N(limit), rng.Int64N(limit)
				b.Copy(dst, src, size)
				extend(max(dst, src) + size)
				copy(model[dst:dst+size], model[src:src+size])
			case k < 13: // a payload write through the writable slice
				size := 1 + rng.Int64N(pageSize)
				start := rng.Int64N(limit)
				p := b.Bytes(start, size)
				for i := range p {
					p[i] = byte(rng.IntN(256))
				}
				extend(start + size)
				copy(model[start:], p)
			case k < 14: // a read marks its pages too; nothing changes
				size := 1 + rng.Int64N(64)
				start := rng.Int64N(limit)
				b.Bytes(start, size)
				extend(start + size)
			case k < 16: // growth with no write past the old end
				limit += rng.Int64N(8 * pageSize)
				b.Ensure(limit)
				extend(limit)
			case k < 19:
				if err := b.Sync(); err != nil {
					t.Fatalf("seed %d op %d: Sync: %v", seed, op, err)
				}
				synced = append(synced[:0], model...)
				if got := fs.DurableLen("arena"); got != int64(len(model)) {
					t.Fatalf("seed %d op %d: durable length %d, arena length %d", seed, op, got, len(model))
				}
				r, err := fs.OpenFile("arena")
				if err != nil {
					t.Fatal(err)
				}
				img := make([]byte, len(model))
				if _, err := r.ReadAt(img, 0); err != nil && len(img) > 0 {
					t.Fatal(err)
				}
				if !bytes.Equal(img, model) {
					t.Fatalf("seed %d op %d: synced file differs from the arena", seed, op)
				}
			default:
				fs.Crash()
				if err := b.Close(); err != nil { // release the dead arena's memory
					t.Fatal(err)
				}
				b = open()
				f, _ := fs.OpenFile("arena")
				if sz, _ := f.Size(); sz != int64(len(synced)) {
					t.Fatalf("seed %d op %d: image of %d bytes after crash, last Sync had %d", seed, op, sz, len(synced))
				}
				if len(synced) > 0 && !bytes.Equal(b.Bytes(0, int64(len(synced))), synced) {
					t.Fatalf("seed %d op %d: image after crash is not the last synced one", seed, op)
				}
				model = append(model[:0], synced...)
				limit = max(int64(len(model)), 3*pageSize)
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// countingFile records every write-back and fsync reaching a file.
type countingFile struct {
	faultfs.File
	writes   [][2]int64 // offset, length
	syncs    int
	failSync bool
}

func (c *countingFile) WriteAt(p []byte, off int64) (int, error) {
	c.writes = append(c.writes, [2]int64{off, int64(len(p))})
	return c.File.WriteAt(p, off)
}

func (c *countingFile) Sync() error {
	c.syncs++
	if c.failSync {
		return errors.New("sync failed")
	}
	return c.File.Sync()
}

// TestSyncWritesOnlyDirtyPages: after a Sync, the next Sync writes back
// only the pages touched since — one run per maximal dirty run — and a
// failed Sync keeps them dirty.
func TestSyncWritesOnlyDirtyPages(t *testing.T) {
	f, err := faultfs.NewMemFS(nil).OpenFile("arena")
	if err != nil {
		t.Fatal(err)
	}
	cf := &countingFile{File: f}
	b, err := FromFile(cf)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	copy(b.Bytes(0, 64), "source bytes")
	b.Ensure(16 * pageSize)
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	check := func(what string, want [][2]int64) {
		t.Helper()
		cf.writes, cf.syncs = nil, 0
		if err := b.Sync(); err != nil {
			t.Fatal(err)
		}
		if len(cf.writes) != len(want) || cf.syncs != 1 {
			t.Fatalf("%s: writes %v, %d fsyncs; want %v, 1 fsync", what, cf.writes, cf.syncs, want)
		}
		for i := range want {
			if cf.writes[i] != want[i] {
				t.Fatalf("%s: writes %v, want %v", what, cf.writes, want)
			}
		}
	}
	check("clean arena", nil)
	b.Copy(5*pageSize+100, 0, 12)
	check("one small copy", [][2]int64{{5 * pageSize, pageSize}})
	b.Copy(8*pageSize-6, 0, 12)            // straddles pages 7 and 8
	copy(b.Bytes(12*pageSize+1, 3), "xyz") // page 12
	check("two runs", [][2]int64{{7 * pageSize, 2 * pageSize}, {12 * pageSize, pageSize}})

	b.Copy(3*pageSize, 0, 12)
	cf.failSync = true
	if err := b.Sync(); err == nil {
		t.Fatal("a failed fsync must fail Sync")
	}
	cf.failSync = false
	check("after a failed fsync", [][2]int64{{3 * pageSize, pageSize}})
}

// TestSyncDoesNotRetryNoSpace: a full disk fails Sync at once with
// ENOSPC; only a transient EIO is retried.
func TestSyncDoesNotRetryNoSpace(t *testing.T) {
	fs := faultfs.NewMemFS(faultfs.NewInjector(faultfs.Fault{Kind: faultfs.NoSpace, N: 1}))
	f, err := fs.OpenFile("arena")
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	copy(b.Bytes(0, 4), "full")
	if err := b.Sync(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Sync on a full disk = %v, want ENOSPC", err)
	}
	if n := fs.Injector().Writes(); n != 1 {
		t.Fatalf("a full disk was written %d times, want 1 (no retry)", n)
	}
}
