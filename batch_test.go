package realloc

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"realloc/internal/addrspace"
	"realloc/internal/telemetry"
)

// batchCases is the equivalence matrix of the satellite contract:
// {amortized, deamortized} × {pods14, fcs}, minus the cell the FCS core
// does not implement (it is an amortized-only algorithm).
var batchCases = []struct {
	name    string
	variant Variant
	core    Core
}{
	{"amortized-pods14", Amortized, CorePODS14},
	{"deamortized-pods14", Deamortized, CorePODS14},
	{"amortized-fcs", Amortized, CoreFCS},
}

// batchScript builds a deterministic mixed op stream with deliberate
// mid-stream failures: bad sizes, duplicate inserts, deletes of missing
// ids — the error positions the batch path must reproduce exactly.
func batchScript(n int) Batch {
	rng := rand.New(rand.NewPCG(42, 7))
	var b Batch
	var live []int64
	next := int64(1)
	for i := 0; i < n; i++ {
		switch {
		case i%37 == 13:
			b = append(b, InsertOp(next, int64(-(i%3)))) // size <= 0
			next++
		case i%41 == 17 && len(live) > 0:
			b = append(b, InsertOp(live[rng.IntN(len(live))], 5)) // duplicate
		case i%43 == 19:
			b = append(b, DeleteOp(int64(1)<<50)) // missing
		case len(live) > 40 && rng.IntN(2) == 0:
			j := rng.IntN(len(live))
			id := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			b = append(b, DeleteOp(id))
		default:
			b = append(b, InsertOp(next, int64(1+rng.IntN(32))))
			live = append(live, next)
			next++
		}
	}
	return b
}

// opTarget is the per-op surface both facades share.
type opTarget interface {
	Insert(id, size int64) error
	Delete(id int64) error
}

// runPerOp is the sequential reference: the loop of Insert/Delete calls
// a batch must be indistinguishable from.
func runPerOp(tgt opTarget, script Batch) []error {
	errs := make([]error, len(script))
	for i, op := range script {
		if op.Kind == OpInsert {
			errs[i] = tgt.Insert(op.ID, op.Size)
		} else {
			errs[i] = tgt.Delete(op.ID)
		}
	}
	return errs
}

// runBatched drives the script through Apply in chunk-sized batches,
// spreading each batch's errors back to script positions.
func runBatched(a applier, script Batch, chunk int) []error {
	errs := make([]error, len(script))
	for lo := 0; lo < len(script); lo += chunk {
		hi := lo + chunk
		if hi > len(script) {
			hi = len(script)
		}
		if res := a.Apply(script[lo:hi]); res != nil {
			copy(errs[lo:hi], res)
		}
	}
	return errs
}

func sameErrs(t *testing.T, label string, got, want []error) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		switch {
		case (g == nil) != (w == nil):
			t.Fatalf("%s: op %d error = %v, want %v", label, i, g, w)
		case g != nil && g.Error() != w.Error():
			t.Fatalf("%s: op %d error = %q, want %q", label, i, g.Error(), w.Error())
		}
	}
}

type placement struct {
	id, start, size int64
}

type stateDumper interface {
	ForEach(fn func(id int64, ext Extent))
	Len() int
	Volume() int64
	Footprint() int64
}

func dumpState(d stateDumper) []placement {
	var out []placement
	d.ForEach(func(id int64, ext Extent) {
		out = append(out, placement{id, ext.Start, ext.Size})
	})
	return out
}

func sameState(t *testing.T, label string, got, want stateDumper) {
	t.Helper()
	if g, w := got.Len(), want.Len(); g != w {
		t.Fatalf("%s: len %d, want %d", label, g, w)
	}
	if g, w := got.Volume(), want.Volume(); g != w {
		t.Fatalf("%s: volume %d, want %d", label, g, w)
	}
	if g, w := got.Footprint(), want.Footprint(); g != w {
		t.Fatalf("%s: footprint %d, want %d", label, g, w)
	}
	if g, w := dumpState(got), dumpState(want); !slices.Equal(g, w) {
		t.Fatalf("%s: layouts differ (%d vs %d placements)", label, len(g), len(w))
	}
}

// eventLog collects observer events; safe for the sharded facades'
// concurrent emission.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) add(e Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) perShard(n int) [][]Event {
	out := make([][]Event, n)
	for _, e := range l.events {
		out[e.Shard] = append(out[e.Shard], e)
	}
	return out
}

// TestBatchApplyEquivalencePlain pins the tentpole contract on the
// plain facade: Apply's results, observer event order, and final state
// are identical to the sequential loop, for every core/variant cell and
// across batch sizes.
func TestBatchApplyEquivalencePlain(t *testing.T) {
	script := batchScript(600)
	for _, c := range batchCases {
		for _, chunk := range []int{17, 64} {
			t.Run(c.name, func(t *testing.T) {
				var refLog, batLog eventLog
				ref, err := New(WithVariant(c.variant), WithCore(c.core), WithObserver(refLog.add))
				if err != nil {
					t.Fatal(err)
				}
				bat, err := New(WithVariant(c.variant), WithCore(c.core), WithObserver(batLog.add))
				if err != nil {
					t.Fatal(err)
				}
				refErrs := runPerOp(ref, script)
				batErrs := runBatched(bat, script, chunk)
				sameErrs(t, "batched", batErrs, refErrs)
				sameState(t, "batched", bat, ref)
				if !slices.Equal(batLog.events, refLog.events) {
					t.Fatalf("event streams differ: %d vs %d events", len(batLog.events), len(refLog.events))
				}
			})
		}
	}
}

// TestBatchApplyEquivalenceSharded pins the same contract on the
// sharded facade. The batch executes shard groups in shard order, so
// the global event interleaving legitimately differs from the
// sequential loop — but each shard receives exactly its submission-
// order subsequence, so the per-shard event streams and the final
// per-shard layouts must be identical.
func TestBatchApplyEquivalenceSharded(t *testing.T) {
	const shards = 4
	script := batchScript(600)
	for _, c := range batchCases {
		t.Run(c.name, func(t *testing.T) {
			var refLog, batLog eventLog
			ref, err := NewSharded(WithShards(shards), WithVariant(c.variant), WithCore(c.core), WithObserver(refLog.add))
			if err != nil {
				t.Fatal(err)
			}
			bat, err := NewSharded(WithShards(shards), WithVariant(c.variant), WithCore(c.core), WithObserver(batLog.add))
			if err != nil {
				t.Fatal(err)
			}
			refErrs := runPerOp(ref, script)
			batErrs := runBatched(bat, script, 64)
			sameErrs(t, "sharded", batErrs, refErrs)
			sameState(t, "sharded", bat, ref)
			refShards, batShards := refLog.perShard(shards), batLog.perShard(shards)
			for i := range refShards {
				if !slices.Equal(batShards[i], refShards[i]) {
					t.Fatalf("shard %d event streams differ: %d vs %d events",
						i, len(batShards[i]), len(refShards[i]))
				}
			}
			if err := bat.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBatchErrorSemantics pins the shape contract of the batched
// surface: nil on full success, positional errors otherwise, and the
// wrapper forms' edge cases.
func TestBatchErrorSemantics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) applier
	}{
		{"plain", func(t *testing.T) applier {
			r, err := New()
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"sharded", func(t *testing.T) applier {
			s, err := NewSharded(WithShards(3))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.build(t)
			if res := a.Apply(nil); res != nil {
				t.Fatalf("empty batch returned %v, want nil", res)
			}
			if res := a.Apply(Batch{InsertOp(1, 4), InsertOp(2, 4)}); res != nil {
				t.Fatalf("all-success batch returned %v, want nil", res)
			}
			res := a.Apply(Batch{
				InsertOp(3, 4),            // ok
				InsertOp(4, 0),            // bad size
				InsertOp(1, 4),            // duplicate
				DeleteOp(99),              // missing
				{Kind: 7, ID: 5, Size: 1}, // unknown kind
				DeleteOp(1),               // ok
			})
			if res == nil {
				t.Fatal("mixed batch returned nil")
			}
			if len(res) != 6 {
				t.Fatalf("mixed batch returned %d slots, want 6", len(res))
			}
			for i, wantErr := range []bool{false, true, true, true, true, false} {
				if (res[i] != nil) != wantErr {
					t.Fatalf("op %d error = %v, want error=%v", i, res[i], wantErr)
				}
			}
		})
	}
}

// TestBatchWrapperForms pins InsertBatch/DeleteBatch: they are exactly
// Apply over the synthesized batch, including the length-mismatch
// rejection that runs nothing.
func TestBatchWrapperForms(t *testing.T) {
	s, err := NewSharded(WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if res := s.InsertBatch([]int64{1, 2, 3}, []int64{4, 4, 4}); res != nil {
		t.Fatalf("InsertBatch returned %v, want nil", res)
	}
	if res := s.InsertBatch([]int64{9}, []int64{1, 2}); len(res) != 1 || res[0] == nil {
		t.Fatalf("length mismatch returned %v, want one error", res)
	}
	if s.Has(9) {
		t.Fatal("mismatched InsertBatch ran an op")
	}
	if res := s.DeleteBatch([]int64{1, 2, 3}); res != nil {
		t.Fatalf("DeleteBatch returned %v, want nil", res)
	}
	if s.Len() != 0 {
		t.Fatalf("len = %d after DeleteBatch, want 0", s.Len())
	}
	res := s.DeleteBatch([]int64{1})
	if res == nil || res[0] == nil {
		t.Fatalf("DeleteBatch of missing id returned %v, want error", res)
	}
}

// TestBatchedDeleteOneRepublish is the white-box pin of the satellite
// fix: deleting a batch of displaced ids republishes the route table
// once per touched shard, not once per id (the per-op Delete path's
// cost).
func TestBatchedDeleteOneRepublish(t *testing.T) {
	s, err := NewSharded(WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	var onZero []int64
	for id := int64(1); len(onZero) < 24 || s.Len() < 96; id++ {
		if err := s.Insert(id, 2); err != nil {
			t.Fatal(err)
		}
		if s.ShardOf(id) == 0 {
			onZero = append(onZero, id)
		}
	}
	moved, err := s.MigrateShard(0, 1, 1<<30, 8)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("migration moved nothing")
	}
	var displaced []int64
	for _, id := range onZero {
		if s.ShardOf(id) == 1 {
			displaced = append(displaced, id)
		}
	}
	if len(displaced) != moved {
		t.Fatalf("found %d displaced ids, want %d", len(displaced), moved)
	}
	pub0 := s.router.publishes.Load()
	if res := s.DeleteBatch(displaced); res != nil {
		t.Fatalf("DeleteBatch returned %v", res)
	}
	if d := s.router.publishes.Load() - pub0; d != 1 {
		t.Fatalf("batched delete of %d displaced ids republished %d times, want 1", len(displaced), d)
	}
	if n := s.RouteOverrides(); n != 0 {
		t.Fatalf("%d overrides survived the batched delete, want 0", n)
	}
}

// TestBatchRerouteFallback drives the batch path's reroute fallback
// deterministically. A shard group run against a route table taken
// before a migration must re-validate ownership under the shard lock:
// the migrated ids go to retry and never run on their old shard, and
// applyOne then runs them on their new owner, with each error at its
// submission index and each latency in the owner's histograms.
func TestBatchRerouteFallback(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := NewSharded(WithShards(4), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	var onZero []int64
	for id := int64(1); len(onZero) < 24; id++ {
		if err := s.Insert(id, 2); err != nil {
			t.Fatal(err)
		}
		if s.ShardOf(id) == 0 {
			onZero = append(onZero, id)
		}
	}
	stale := s.router.table.Load()
	if _, err := s.MigrateShard(0, 1, 1<<30, 8); err != nil {
		t.Fatal(err)
	}
	var migrated, stayed []int64
	for _, id := range onZero {
		switch s.ShardOf(id) {
		case 0:
			stayed = append(stayed, id)
		case 1:
			migrated = append(migrated, id)
		default:
			t.Fatalf("id %d migrated to shard %d, want 1", id, s.ShardOf(id))
		}
	}
	if len(migrated) < 3 || len(stayed) == 0 {
		t.Fatalf("migration left %d ids moved and %d in place, want >= 3 and >= 1", len(migrated), len(stayed))
	}
	batch := Batch{
		DeleteOp(migrated[0]),
		InsertOp(migrated[1], 5), // duplicate: the id is live on shard 1
		DeleteOp(stayed[0]),
		DeleteOp(migrated[2]),
	}
	group := []int32{0, 1, 2, 3}
	for _, i := range group {
		if h := s.router.routeIn(stale, batch[i].ID); h != 0 {
			t.Fatalf("op %d routes to shard %d under the stale table, want 0", i, h)
		}
	}
	var before0, before1, after0, after1 telemetry.Snapshot
	reg.ReadShardSnapshot(0, &before0)
	reg.ReadShardSnapshot(1, &before1)
	len0, len1 := s.shards[0].inner.Len(), s.shards[1].inner.Len()
	overrides := s.RouteOverrides()

	var retry []int32
	start := telemetry.Now()
	result := s.applyShardGroup(batch, group, 0, stale, new(shardedApplyScratch), start, nil, &retry)
	if result != nil {
		t.Fatalf("shard group returned %v, want no errors", result)
	}
	if !slices.Equal(retry, []int32{0, 1, 3}) {
		t.Fatalf("retry = %v, want the migrated ops [0 1 3]", retry)
	}
	for _, id := range migrated[:3] {
		if s.shards[0].inner.Has(addrspace.ID(id)) {
			t.Fatalf("migrated id %d ran on its old shard", id)
		}
	}
	if got := s.shards[0].inner.Len(); got != len0-1 {
		t.Fatalf("shard 0 holds %d objects after its group, want %d", got, len0-1)
	}
	if got := s.shards[1].inner.Len(); got != len1 {
		t.Fatalf("shard 1 holds %d objects after shard 0's group, want %d", got, len1)
	}

	for _, i := range retry {
		if err := s.applyOne(batch[i], start); err != nil {
			result = setBatchErr(result, len(batch), int(i), err)
		}
	}
	if len(result) != len(batch) {
		t.Fatalf("result = %v, want %d slots", result, len(batch))
	}
	for i, e := range result {
		if (e != nil) != (i == 1) {
			t.Fatalf("op %d error = %v, want an error only at the duplicate insert (op 1)", i, e)
		}
	}
	for _, id := range []int64{migrated[0], migrated[2]} {
		if s.Has(id) {
			t.Fatalf("rerouted delete of %d did not run", id)
		}
	}
	if got := s.shards[1].inner.Len(); got != len1-2 {
		t.Fatalf("shard 1 holds %d objects, want %d: the rerouted deletes run on ShardOf(id)", got, len1-2)
	}
	if got := s.shards[0].inner.Len(); got != len0-1 {
		t.Fatalf("shard 0 holds %d objects, want %d", got, len0-1)
	}
	if size, ok := s.shards[1].inner.SizeOf(addrspace.ID(migrated[1])); !ok || size != 2 {
		t.Fatalf("duplicate insert changed %d on shard 1: size %d, live %v", migrated[1], size, ok)
	}
	if got := s.RouteOverrides(); got != overrides-2 {
		t.Fatalf("%d route overrides, want %d: the rerouted deletes clear theirs", got, overrides-2)
	}

	reg.ReadShardSnapshot(0, &after0)
	reg.ReadShardSnapshot(1, &after1)
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"shard 0 deletes", after0.DeleteLatency.Count - before0.DeleteLatency.Count, 1},
		{"shard 0 inserts", after0.InsertLatency.Count - before0.InsertLatency.Count, 0},
		{"shard 0 batch groups", after0.BatchSize.Count - before0.BatchSize.Count, 1},
		{"shard 1 deletes", after1.DeleteLatency.Count - before1.DeleteLatency.Count, 2},
		{"shard 1 inserts", after1.InsertLatency.Count - before1.InsertLatency.Count, 1},
		{"shard 1 batch groups", after1.BatchSize.Count - before1.BatchSize.Count, 3},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d records, want %d", c.name, c.got, c.want)
		}
	}

	// The fallback reports exactly what the per-op call reports.
	if want := s.Insert(migrated[1], 5); want == nil || result[1].Error() != want.Error() {
		t.Fatalf("duplicate insert error = %v, want the per-op error %v", result[1], want)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchApplyAllocationFree pins the acceptance criterion that
// steady-state batched requests allocate nothing outside ring setup:
// a churn batch recycled through pooled scratch must be 0 allocs/op.
func TestBatchApplyAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	s, err := NewSharded(WithShards(4), WithEpsilon(1))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, 256)
	for i := range ids {
		ids[i] = int64(i + 1)
		if err := s.Insert(ids[i], 4); err != nil {
			t.Fatal(err)
		}
	}
	batch := make(Batch, 0, 128)
	for i := 0; i < 64; i++ {
		batch = append(batch, DeleteOp(ids[i]), InsertOp(ids[i], 4))
	}
	for i := 0; i < 8; i++ { // warm the pools and the cores' free lists
		if res := s.Apply(batch); res != nil {
			t.Fatalf("warmup batch failed: %v", res)
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		if res := s.Apply(batch); res != nil {
			t.Fatalf("batch failed: %v", res)
		}
	}); a != 0 {
		t.Fatalf("steady-state Apply allocates %.1f/op, want 0", a)
	}
}

// TestBatchStressConcurrent is the -race stress of the batch contract:
// concurrent batch submitters against inline rebalancing, manual
// migrations, and a mid-flight Close.
func TestBatchStressConcurrent(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := NewSharded(WithShards(4), WithTelemetry(reg),
		WithRebalance(RebalancePolicy{Mode: RebalanceInline, CheckEvery: 32, Threshold: 1.2}))
	if err != nil {
		t.Fatal(err)
	}
	// One guaranteed batch before the race starts, so the telemetry
	// assertion below holds however the workers are scheduled.
	if res := s.Apply(Batch{InsertOp(1, 2), DeleteOp(1)}); res != nil {
		t.Fatalf("seed batch: %v", res)
	}
	const workers = 4
	var wg sync.WaitGroup
	stopMig := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w)+1, 99))
			base := int64(w+1) << 40
			var live []int64
			next := int64(1)
			for iter := 0; iter < 400; iter++ {
				var b Batch
				for k := 0; k < 16; k++ {
					if len(live) > 64 && rng.IntN(2) == 0 {
						j := rng.IntN(len(live))
						id := live[j]
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
						b = append(b, DeleteOp(id))
					} else {
						id := base | next
						next++
						b = append(b, InsertOp(id, int64(1+rng.IntN(8))))
						live = append(live, id)
					}
				}
				for _, e := range s.Apply(b) {
					if e != nil {
						t.Errorf("worker %d: %v", w, e)
						return
					}
				}
			}
		}(w)
	}
	var migWG sync.WaitGroup
	migWG.Add(1)
	go func() {
		defer migWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopMig:
				return
			default:
			}
			from, to := i%4, (i+1)%4
			if _, err := s.MigrateShard(from, to, 64, 8); err != nil {
				t.Errorf("migrate: %v", err)
				return
			}
			// Yield so a hot migration loop cannot monopolize a
			// single-CPU scheduler and starve the submitters.
			runtime.Gosched()
		}
	}()
	time.Sleep(5 * time.Millisecond)
	if err := s.Close(); err != nil { // mid-flight: some submitters still active
		t.Errorf("close: %v", err)
	}
	wg.Wait()
	close(stopMig)
	migWG.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	reg.ReadSnapshot(&snap)
	if snap.BatchSize.Count == 0 {
		t.Error("no batch groups recorded")
	}
}
