package realloc_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"realloc"
	"realloc/internal/addrspace"
	"realloc/internal/workload"
)

// skewedSharded builds an n-shard reallocator (plus extra options) and
// drives a zipf-skewed churn aimed at its hash homes into it.
func skewedSharded(t *testing.T, n, ops int, extra ...realloc.Option) *realloc.ShardedReallocator {
	t.Helper()
	opts := append([]realloc.Option{
		realloc.WithShards(n), realloc.WithEpsilon(0.25), realloc.WithInvariantChecks(),
	}, extra...)
	s, err := realloc.NewSharded(opts...)
	if err != nil {
		t.Fatal(err)
	}
	gen := &workload.ZipfChurn{
		Seed: 11, Sizes: workload.Uniform{Min: 1, Max: 64},
		TargetVolume: 20000, Homes: n, S: 1.8,
	}
	for i := 0; i < ops; i++ {
		op, _ := gen.Next()
		var err error
		if op.Insert {
			err = s.Insert(int64(op.ID), op.Size)
		} else {
			err = s.Delete(int64(op.ID))
		}
		if err != nil {
			t.Fatalf("op %d (%+v): %v", i, op, err)
		}
	}
	return s
}

func spread(s *realloc.ShardedReallocator) float64 {
	vols := s.ShardVolumes()
	var total, max int64
	for _, v := range vols {
		total += v
		if v > max {
			max = v
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) / (float64(total) / float64(len(vols)))
}

// TestRebalanceLevelsSkew drives a skewed population, then runs one
// manual sweep: the spread must drop below the default threshold, the
// live set must be exactly preserved (ids, sizes, routability), every
// shard must keep its structural and footprint invariants, and deleting
// everything must empty the id→shard override table.
func TestRebalanceLevelsSkew(t *testing.T) {
	s := skewedSharded(t, 4, 4000)
	if sp := spread(s); sp < 2 {
		t.Fatalf("workload failed to skew: spread %.2f", sp)
	}
	want := map[int64]int64{}
	s.ForEach(func(id int64, ext realloc.Extent) { want[id] = ext.Size })

	moved, err := s.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("sweep migrated nothing")
	}
	if objs, vol := s.Migrations(); objs != int64(moved) || vol < objs {
		t.Fatalf("migration counters objs=%d vol=%d, want objs=%d", objs, vol, moved)
	}
	if sp := spread(s); sp > 1.5 {
		t.Fatalf("spread after sweep %.2f, want <= 1.5", sp)
	}
	if s.RouteOverrides() == 0 {
		t.Fatal("no route overrides after migration")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	got := map[int64]int64{}
	s.ForEach(func(id int64, ext realloc.Extent) { got[id] = ext.Size })
	if len(got) != len(want) {
		t.Fatalf("live set size changed: %d -> %d", len(want), len(got))
	}
	for id, sz := range want {
		if got[id] != sz {
			t.Fatalf("id %d size %d, want %d", id, got[id], sz)
		}
		if !s.Has(id) {
			t.Fatalf("id %d unroutable after migration", id)
		}
		if ext, ok := s.Extent(id); !ok || ext.Size != sz {
			t.Fatalf("id %d extent ok=%v size=%d, want %d", id, ok, ext.Size, sz)
		}
	}

	// A second sweep on a leveled structure is a no-op.
	if moved, err := s.Rebalance(); err != nil || moved != 0 {
		t.Fatalf("second sweep moved %d (err %v), want 0", moved, err)
	}

	// Deleting every object must drain the override table.
	for id := range want {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.RouteOverrides(); n != 0 {
		t.Fatalf("%d route overrides survive full deletion", n)
	}
}

// TestMigrateShard checks the manual migration surface: batch bounds are
// respected and out-of-range shards are rejected.
func TestMigrateShard(t *testing.T) {
	s := skewedSharded(t, 4, 3000)
	vols := s.ShardVolumes()
	hot, cold := 0, 0
	for i, v := range vols {
		if v > vols[hot] {
			hot = i
		}
		if v < vols[cold] {
			cold = i
		}
	}
	moved, err := s.MigrateShard(hot, cold, 1<<40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 5 {
		t.Fatalf("object bound ignored: moved %d, want 5", moved)
	}
	moved, err = s.MigrateShard(hot, cold, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("volume budget ignored: moved %d, want 1", moved)
	}
	if _, err := s.MigrateShard(0, 9, 1, 1); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if _, err := s.MigrateShard(-1, 0, 1, 1); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInlineRebalanceKeepsSpreadBounded arms the inline (work-stealing)
// policy and checks the skewed workload's spread stays level without any
// explicit Rebalance call.
func TestInlineRebalanceKeepsSpreadBounded(t *testing.T) {
	s := skewedSharded(t, 4, 6000, realloc.WithRebalance(realloc.RebalancePolicy{
		Mode: realloc.RebalanceInline, Threshold: 1.25, CheckEvery: 32, BatchObjects: 256,
	}))
	if objs, _ := s.Migrations(); objs == 0 {
		t.Fatal("inline policy never migrated")
	}
	if sp := spread(s); sp > 2 {
		t.Fatalf("inline spread %.2f, want <= 2", sp)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // no-op for inline, still clean
		t.Fatal(err)
	}
}

// TestBackgroundRebalance arms the background sweeper and waits for it to
// level a skewed population on its own.
func TestBackgroundRebalance(t *testing.T) {
	s := skewedSharded(t, 4, 4000, realloc.WithRebalance(realloc.RebalancePolicy{
		Mode: realloc.RebalanceBackground, Threshold: 1.25, Interval: time.Millisecond,
	}))
	deadline := time.Now().Add(10 * time.Second)
	for spread(s) > 1.5 {
		if time.Now().After(deadline) {
			t.Fatalf("background sweeper never leveled: spread %.2f", spread(s))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if objs, _ := s.Migrations(); objs == 0 {
		t.Fatal("background policy never migrated")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// The synchronous surface stays usable after Close.
	if res := s.Apply(realloc.Batch{realloc.InsertOp(1<<40, 4)}); res != nil {
		t.Fatalf("Apply after Close returned %v", res)
	}
}

// TestShardedObserverMigrationReplay is the observer contract under
// migration, run with concurrent mutators (meaningful under -race): an
// observer that replays every event into an id -> (shard, extent) map
// must end up exactly matching ForEach and the routed ShardOf, migrations
// included.
func TestShardedObserverMigrationReplay(t *testing.T) {
	type loc struct {
		shard int
		ext   realloc.Extent
	}
	var mu sync.Mutex
	replay := map[int64]loc{}
	var migrations int
	s, err := realloc.NewSharded(
		realloc.WithShards(4),
		realloc.WithEpsilon(0.25),
		realloc.WithRebalance(realloc.RebalancePolicy{
			Mode: realloc.RebalanceInline, Threshold: 1.25, CheckEvery: 16, BatchObjects: 64,
		}),
		realloc.WithObserver(func(e realloc.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch e.Kind {
			case realloc.EventInsert, realloc.EventMove:
				replay[e.ID] = loc{e.Shard, realloc.Extent{Start: e.To, Size: e.Size}}
			case realloc.EventMigrate:
				migrations++
				if e.FromShard == e.Shard {
					t.Errorf("migrate event with FromShard == Shard == %d", e.Shard)
				}
				replay[e.ID] = loc{e.Shard, realloc.Extent{Start: e.To, Size: e.Size}}
			case realloc.EventDelete:
				delete(replay, e.ID)
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// FirstID gives each worker a disjoint id range without
			// re-hashing ids, which would erase the zipf home skew.
			gen := &workload.ZipfChurn{
				Seed: uint64(100 + w), Sizes: workload.Uniform{Min: 1, Max: 64},
				TargetVolume: 5000, Homes: 4, S: 1.8,
				FirstID: addrspace.ID(1 + int64(w)<<40),
			}
			for i := 0; i < 4000; i++ {
				op, _ := gen.Next()
				var err error
				if op.Insert {
					err = s.Insert(int64(op.ID), op.Size)
				} else {
					err = s.Delete(int64(op.ID))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	if migrations == 0 {
		t.Fatal("no migration events observed")
	}
	final := map[int64]realloc.Extent{}
	s.ForEach(func(id int64, ext realloc.Extent) { final[id] = ext })
	if len(final) != len(replay) {
		t.Fatalf("replay has %d objects, structure has %d", len(replay), len(final))
	}
	for id, ext := range final {
		l, ok := replay[id]
		if !ok {
			t.Fatalf("id %d missing from replay", id)
		}
		if l.ext != ext {
			t.Fatalf("id %d replayed extent %+v, actual %+v", id, l.ext, ext)
		}
		if want := s.ShardOf(id); l.shard != want {
			t.Fatalf("id %d replayed on shard %d, routed to %d", id, l.shard, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedSnapshotStats pins the documented snapshot semantics of
// aggregate reads under concurrent mutation (run it with -race): every
// per-shard triple is internally consistent and the totals are exactly
// the sums of the per-shard entries returned with them.
func TestShardedSnapshotStats(t *testing.T) {
	s, err := realloc.NewSharded(
		realloc.WithShards(4),
		realloc.WithRebalance(realloc.RebalancePolicy{Mode: realloc.RebalanceInline}),
	)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := &workload.ZipfChurn{
				Seed: uint64(w + 1), Sizes: workload.Uniform{Min: 1, Max: 64},
				TargetVolume: 4000, Homes: 4, S: 1.8,
				FirstID: addrspace.ID(1 + int64(w)<<40),
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				op, _ := gen.Next()
				if op.Insert {
					_ = s.Insert(int64(op.ID), op.Size)
				} else {
					_ = s.Delete(int64(op.ID))
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		snap := s.Snapshot()
		if len(snap.Shards) != 4 {
			t.Fatalf("snapshot has %d shards", len(snap.Shards))
		}
		var l int
		var v, f int64
		for i, ss := range snap.Shards {
			if ss.Len < 0 || ss.Volume < 0 || ss.Footprint < 0 {
				t.Fatalf("shard %d snapshot negative: %+v", i, ss)
			}
			if ss.Footprint < ss.Volume {
				t.Fatalf("shard %d footprint %d below volume %d", i, ss.Footprint, ss.Volume)
			}
			if (ss.Len == 0) != (ss.Volume == 0) {
				t.Fatalf("shard %d len %d inconsistent with volume %d", i, ss.Len, ss.Volume)
			}
			l += ss.Len
			v += ss.Volume
			f += ss.Footprint
		}
		if l != snap.Len || v != snap.Volume || f != snap.Footprint {
			t.Fatalf("totals (%d,%d,%d) are not the per-shard sums (%d,%d,%d)",
				snap.Len, snap.Volume, snap.Footprint, l, v, f)
		}
	}
	close(stop)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWithRebalanceValidation covers the option's boundary errors.
func TestWithRebalanceValidation(t *testing.T) {
	if _, err := realloc.New(realloc.WithRebalance(realloc.RebalancePolicy{})); err == nil ||
		!strings.Contains(err.Error(), "NewSharded") {
		t.Fatalf("New accepted WithRebalance: %v", err)
	}
	if _, err := realloc.NewSharded(realloc.WithShards(2),
		realloc.WithRebalance(realloc.RebalancePolicy{Threshold: 0.9})); err == nil ||
		!strings.Contains(err.Error(), "threshold") {
		t.Fatalf("bad threshold accepted: %v", err)
	}
	s, err := realloc.NewSharded(realloc.WithShards(2),
		realloc.WithRebalance(realloc.RebalancePolicy{}))
	if err != nil {
		t.Fatalf("defaulted policy rejected: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
