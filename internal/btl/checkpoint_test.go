package btl

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"realloc/internal/addrspace"
	"realloc/internal/arena"
	"realloc/internal/faultfs"
)

// filledDurable returns a durable store over a fresh MemFS holding live
// blocks, each written through Put and then checkpointed.
func filledDurable(t *testing.T, live int) *Store {
	t.Helper()
	s, err := New(Config{FS: faultfs.NewMemFS(nil)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < live; i++ {
		name := fmt.Sprintf("blk%05d", i)
		if err := s.Put(name, payload(name, 16+i%97)); err != nil {
			t.Fatal(err)
		}
	}
	s.Checkpoint()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDurableCheckpointAllocsIndependentOfLive pins the O(Δ) checkpoint:
// a durable checkpoint runs only the media protocol, so with nothing
// logged since the previous one it allocates the same at 256 and at
// 4096 live blocks — it walks no live set.
func TestDurableCheckpointAllocsIndependentOfLive(t *testing.T) {
	allocs := func(live int) float64 {
		s := filledDurable(t, live)
		defer s.Close()
		n := testing.AllocsPerRun(20, s.Checkpoint)
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		if s.durable != nil {
			t.Fatalf("durable store built a shadow map of %d blocks", len(s.durable))
		}
		return n
	}
	small, large := allocs(256), allocs(4096)
	if large > small {
		t.Fatalf("durable checkpoint allocs grow with live blocks: %.1f at 256, %.1f at 4096", small, large)
	}
}

// TestCellTrackingOnlyInMemory pins which stores stamp cell owners: the
// in-memory store, whose Recover reads the stamps, and no durable one —
// fresh or recovered — whose recovery checksums the arena bytes.
func TestCellTrackingOnlyInMemory(t *testing.T) {
	mem, err := New(Config{Backend: arena.Heap})
	if err != nil {
		t.Fatal(err)
	}
	if !mem.Reallocator().Space().Options().TrackCells {
		t.Fatal("in-memory store runs without cell tracking")
	}
	fs := faultfs.NewMemFS(nil)
	dur, err := New(Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if dur.Reallocator().Space().Options().TrackCells {
		t.Fatal("durable store stamps cells")
	}
	if err := dur.Put("a", payload("a", 40)); err != nil {
		t.Fatal(err)
	}
	dur.Checkpoint()
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, _, err := Open(Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Reallocator().Space().Options().TrackCells {
		t.Fatal("recovered durable store stamps cells")
	}
}

// TestDurableCheckInvariantsCatchesFlippedByte shows the checksum check
// covers what the cell stamps simulated: one flipped payload byte at any
// block's current extent is reported, naming that block.
func TestDurableCheckInvariantsCatchesFlippedByte(t *testing.T) {
	s := filledDurable(t, 64)
	defer s.Close()
	// Churn so that flushes move blocks away from where Put placed them.
	for i := 0; i < 64; i += 3 {
		name := fmt.Sprintf("blk%05d", i)
		if err := s.Drop(name); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(name, payload(name, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	data := s.Reallocator().Space().Data()
	for name := range s.byName {
		ext, ok := s.Lookup(name)
		if !ok {
			t.Fatalf("block %q has no extent", name)
		}
		at := ext.Start + ext.Size/2
		data.Bytes(at, 1)[0] ^= 0x20
		err := s.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
			t.Fatalf("flipped byte %d of %q at %v: CheckInvariants = %v", at, name, ext, err)
		}
		data.Bytes(at, 1)[0] ^= 0x20
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGetWithoutPayloadBackend pins Get's error on a metered store,
// which keeps no payload bytes: addrspace.ErrNoData, as Read reports.
func TestGetWithoutPayloadBackend(t *testing.T) {
	s := newStore(t, false)
	if err := s.Put("a", payload("a", 12)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a"); !errors.Is(err, addrspace.ErrNoData) {
		t.Fatalf("get on the metered backend: %v", err)
	}
}
