package arena

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
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

// TestFilePersistence: bytes written before Sync survive Close and
// reopen via Open; bytes written after the last Sync may or may not —
// here, with no crash in between, Close alone must not lose synced
// data.
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

	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if got := r.Bytes(100, n); !bytes.Equal(got, payload) {
		t.Fatalf("original extent lost: %q", got)
	}
	if got := r.Bytes(5000, n); !bytes.Equal(got, payload) {
		t.Fatalf("moved extent lost: %q", got)
	}
}

// TestFileGrowthPreservesAcrossReopen: growth remaps the file; written
// bytes on both sides of the remap must survive a sync/reopen cycle.
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
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
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
