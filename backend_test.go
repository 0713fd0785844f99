package realloc_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"realloc"
	"realloc/internal/telemetry"
)

// driveChurn replays a deterministic insert/delete churn stream against
// any facade, returning the set of live IDs. Payload writers hook in via
// onInsert so differential runs and payload runs share one stream shape.
func driveChurn(t *testing.T, rng *rand.Rand, ops int,
	insert func(id, size int64) error, del func(id int64) error) map[int64]int64 {
	t.Helper()
	live := map[int64]int64{}
	ids := []int64{}
	var next int64 = 1
	for i := 0; i < ops; i++ {
		if rng.Float64() < 0.55 || len(ids) == 0 {
			id, size := next, 1+rng.Int64N(128)
			next++
			if err := insert(id, size); err != nil {
				t.Fatalf("insert %d: %v", id, err)
			}
			live[id] = size
			ids = append(ids, id)
		} else {
			j := rng.IntN(len(ids))
			id := ids[j]
			if err := del(id); err != nil {
				t.Fatalf("delete %d: %v", id, err)
			}
			delete(live, id)
			ids[j] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
	}
	return live
}

// TestBackendDifferentialExtents replays the identical churn stream
// against a metered and a heap-backed reallocator for every variant and
// asserts the two runs are observationally identical: same event stream
// (kind, id, size, from, to) and same final extent for every live
// object. The backend exists below the placement policy; it must never
// change a placement decision.
func TestBackendDifferentialExtents(t *testing.T) {
	for _, v := range []realloc.Variant{realloc.Amortized, realloc.Checkpointed, realloc.Deamortized} {
		t.Run(v.String(), func(t *testing.T) {
			type ev struct {
				kind     realloc.EventKind
				id, size int64
				from, to int64
			}
			run := func(b realloc.Backend) ([]ev, map[int64]realloc.Extent) {
				var events []ev
				r, err := realloc.New(
					realloc.WithEpsilon(0.25),
					realloc.WithVariant(v),
					realloc.WithBackend(b),
					realloc.WithObserver(func(e realloc.Event) {
						events = append(events, ev{e.Kind, e.ID, e.Size, e.From, e.To})
					}),
				)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewPCG(7, 0xd1f))
				live := driveChurn(t, rng, 4000, r.Insert, r.Delete)
				if err := r.Drain(); err != nil {
					t.Fatal(err)
				}
				exts := map[int64]realloc.Extent{}
				for id := range live {
					ext, ok := r.Extent(id)
					if !ok {
						t.Fatalf("backend %v: live id %d has no extent", b, id)
					}
					exts[id] = ext
				}
				return events, exts
			}
			mEvents, mExts := run(realloc.Metered)
			hEvents, hExts := run(realloc.HeapArena)
			if len(mEvents) != len(hEvents) {
				t.Fatalf("event count diverged: metered=%d heap=%d", len(mEvents), len(hEvents))
			}
			for i := range mEvents {
				if mEvents[i] != hEvents[i] {
					t.Fatalf("event %d diverged: metered=%+v heap=%+v", i, mEvents[i], hEvents[i])
				}
			}
			if len(mExts) != len(hExts) {
				t.Fatalf("live set diverged: metered=%d heap=%d", len(mExts), len(hExts))
			}
			for id, ext := range mExts {
				if hExts[id] != ext {
					t.Fatalf("id %d extent diverged: metered=%+v heap=%+v", id, ext, hExts[id])
				}
			}
		})
	}
}

// TestPayloadIntegrityAcrossFlushChunking is the payload property test:
// under both the amortized flush (one big rewrite) and the deamortized
// flush (work sliced across requests, with reads landing mid-flush),
// every object's bytes must read back exactly as written, at every
// probe point. Several seeds vary where the probes land relative to
// flush boundaries.
func TestPayloadIntegrityAcrossFlushChunking(t *testing.T) {
	pattern := func(id, size int64) []byte {
		p := make([]byte, size)
		for i := range p {
			p[i] = byte(uint64(id)*2654435761 + uint64(i))
		}
		return p
	}
	for _, v := range []realloc.Variant{realloc.Amortized, realloc.Deamortized} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", v, seed), func(t *testing.T) {
				r, err := realloc.New(
					realloc.WithEpsilon(0.25),
					realloc.WithVariant(v),
					realloc.WithBackend(realloc.HeapArena),
				)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewPCG(seed, 0xfee1))
				verify := func(live map[int64]int64) {
					for id, size := range live {
						got, ok := r.Bytes(id)
						if !ok {
							t.Fatalf("id %d: no payload", id)
						}
						if !bytes.Equal(got, pattern(id, size)) {
							t.Fatalf("id %d: payload corrupted (size %d)", id, size)
						}
					}
				}
				live := map[int64]int64{}
				probe := 0
				insert := func(id, size int64) error {
					if err := r.Insert(id, size); err != nil {
						return err
					}
					if err := r.Write(id, pattern(id, size)); err != nil {
						return err
					}
					live[id] = size
					// Probe mid-stream every so often: with the
					// deamortized variant this lands inside sliced
					// flushes, with the amortized one right after
					// whole-flush rewrites.
					if probe++; probe%97 == 0 {
						verify(live)
					}
					return nil
				}
				del := func(id int64) error {
					delete(live, id)
					return r.Delete(id)
				}
				driveChurn(t, rng, 3000, insert, del)
				verify(live)
				if err := r.Drain(); err != nil {
					t.Fatal(err)
				}
				verify(live)
				if r.BytesMoved() == 0 {
					t.Fatal("no physical moves happened; the test exercised nothing")
				}
			})
		}
	}
}

// TestConcurrentReadDuringFlush hammers a heap-backed sharded
// reallocator with churn on one side and payload reads of stable
// objects on the other. Reads take only the shard read lock, flushes
// run under the shard write lock — so under -race this proves readers
// never observe a torn copy while the flusher memmoves extents. In the
// large lane, stable and churn objects share one 64–128 KiB size class,
// so flush plans move the stable objects and exceed the substrate's
// 2 MiB overlap threshold: their copies run on a second goroutine while
// the flusher commits the index, and the readers check that path. The
// lane's telemetry proves such a plan ran.
func TestConcurrentReadDuringFlush(t *testing.T) {
	for _, lane := range []struct {
		name           string
		stableSize     int64 // stable payloads are stableSize + id%17 bytes
		churnMin, span int64 // churn sizes are churnMin + [0, span)
		ops            int
		minFlush       int64 // some flush must move at least this much
	}{
		{"small", 40, 1, 64, 30000, 0},
		{"large", 64 << 10, 64 << 10, 64 << 10, 1200, 2 << 20},
	} {
		t.Run(lane.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			s, err := realloc.NewSharded(
				realloc.WithEpsilon(0.25),
				realloc.WithShards(4),
				realloc.WithBackend(realloc.HeapArena),
				realloc.WithTelemetry(reg),
			)
			if err != nil {
				t.Fatal(err)
			}
			// Stable objects with known payloads, spread across shards.
			const stable = 64
			payload := func(id int64) []byte {
				p := make([]byte, lane.stableSize+id%17)
				for i := range p {
					p[i] = byte(uint64(id)*31 + uint64(i))
				}
				return p
			}
			for id := int64(1); id <= stable; id++ {
				if err := s.Insert(id, int64(len(payload(id)))); err != nil {
					t.Fatal(err)
				}
				if err := s.Write(id, payload(id)); err != nil {
					t.Fatal(err)
				}
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(seed, 0xace))
					for !stop.Load() {
						id := 1 + rng.Int64N(stable)
						want := payload(id)
						got, ok := s.Bytes(id)
						if !ok {
							t.Errorf("id %d vanished", id)
							return
						}
						if !bytes.Equal(got, want) {
							t.Errorf("id %d: torn or corrupted read", id)
							return
						}
					}
				}(uint64(w + 1))
			}
			// Churn driver: scratch objects come and go around the stable
			// ones, forcing flushes (and physical moves) on every shard.
			rng := rand.New(rand.NewPCG(99, 0xb0b))
			var next int64 = stable + 1
			var ids []int64
			for i := 0; i < lane.ops; i++ {
				if rng.Float64() < 0.55 || len(ids) == 0 {
					id := next
					next++
					if err := s.Insert(id, lane.churnMin+rng.Int64N(lane.span)); err != nil {
						t.Fatal(err)
					}
					ids = append(ids, id)
				} else {
					j := rng.IntN(len(ids))
					if err := s.Delete(ids[j]); err != nil {
						t.Fatal(err)
					}
					ids[j] = ids[len(ids)-1]
					ids = ids[:len(ids)-1]
				}
			}
			stop.Store(true)
			wg.Wait()
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
			if s.BytesMoved() == 0 {
				t.Fatal("churn produced no physical moves")
			}
			for id := int64(1); id <= stable; id++ {
				got, ok := s.Bytes(id)
				if !ok || !bytes.Equal(got, payload(id)) {
					t.Fatalf("id %d: payload corrupted after churn", id)
				}
			}
			var snap telemetry.Snapshot
			reg.ReadSnapshot(&snap)
			var large int64 // flushes that moved at least lane.minFlush
			for i, n := range snap.FlushMoved.Buckets {
				if lo, _ := telemetry.BucketBounds(i); lo >= lane.minFlush {
					large += n
				}
			}
			if lane.minFlush > 0 && large == 0 {
				t.Fatalf("no flush moved %d bytes or more (largest %d)", lane.minFlush, snap.FlushMoved.Max)
			}
			t.Logf("%d flushes, %d of at least %d bytes, largest %d bytes", snap.FlushMoved.Count, large, lane.minFlush, snap.FlushMoved.Max)
		})
	}
}
