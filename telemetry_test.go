package realloc

import (
	"io"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"realloc/internal/telemetry"
)

// churnTelemetry drives a deterministic insert/delete mix and returns
// how many of each were issued.
func churnTelemetry(t *testing.T, insert func(int64, int64) error, del func(int64) error, ops int, seed uint64) (inserts, deletes int64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 99))
	var live []int64
	next := int64(1)
	for op := 0; op < ops; op++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			if err := insert(next, 1+rng.Int64N(64)); err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
			live = append(live, next)
			next++
			inserts++
		} else {
			i := rng.IntN(len(live))
			if err := del(live[i]); err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			deletes++
		}
	}
	return inserts, deletes
}

// TestTelemetryFacadeStats is the facade drift test: both facades must
// fill the same telemetry summary fields in Stats, derived from the
// registry exactly as latencyP99s computes them, and the registry must
// account for every op issued through either facade.
func TestTelemetryFacadeStats(t *testing.T) {
	const ops = 4000
	run := func(t *testing.T, reg *telemetry.Registry, stats func() (Stats, bool), ins, del int64) {
		st, ok := stats()
		if !ok {
			t.Fatal("Stats missing despite WithMetrics")
		}
		var snap telemetry.Snapshot
		reg.ReadSnapshot(&snap)
		if got := snap.InsertLatency.Count; got != ins {
			t.Errorf("registry insert count = %d, want %d", got, ins)
		}
		if got := snap.DeleteLatency.Count; got != del {
			t.Errorf("registry delete count = %d, want %d", got, del)
		}
		wantOp, wantFlush := latencyP99s(&snap)
		if st.LatencyP99 != wantOp || st.FlushP99 != wantFlush {
			t.Errorf("Stats p99s (%v, %v) drift from registry (%v, %v)",
				st.LatencyP99, st.FlushP99, wantOp, wantFlush)
		}
		if st.LatencyP99 <= 0 {
			t.Errorf("LatencyP99 = %v, want > 0 after %d ops", st.LatencyP99, ops)
		}
		if snap.FlushDuration.Count > 0 && st.FlushP99 <= 0 {
			t.Errorf("FlushP99 = %v despite %d flushes", st.FlushP99, snap.FlushDuration.Count)
		}
	}
	t.Run("unsharded", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		r, err := New(WithEpsilon(0.25), WithVariant(Deamortized), WithMetrics(), WithTelemetry(reg))
		if err != nil {
			t.Fatal(err)
		}
		ins, del := churnTelemetry(t, r.Insert, r.Delete, ops, 1)
		if err := r.Drain(); err != nil {
			t.Fatal(err)
		}
		run(t, reg, r.Stats, ins, del)
	})
	t.Run("sharded", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		s, err := NewSharded(WithShards(4), WithEpsilon(0.25), WithVariant(Deamortized),
			WithMetrics(), WithTelemetry(reg))
		if err != nil {
			t.Fatal(err)
		}
		ins, del := churnTelemetry(t, s.Insert, s.Delete, ops, 2)
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		run(t, reg, s.Stats, ins, del)
		if reg.NumShards() != 4 {
			t.Errorf("registry shards = %d, want 4", reg.NumShards())
		}
		// Per-shard stats carry that shard's own tail, from the same
		// registry, through the same derivation.
		st0, ok := s.ShardStats(0)
		if !ok {
			t.Fatal("ShardStats missing")
		}
		var shard0 telemetry.Snapshot
		reg.ReadShardSnapshot(0, &shard0)
		wantOp, wantFlush := latencyP99s(&shard0)
		if st0.LatencyP99 != wantOp || st0.FlushP99 != wantFlush {
			t.Errorf("ShardStats p99s (%v, %v) drift from shard snapshot (%v, %v)",
				st0.LatencyP99, st0.FlushP99, wantOp, wantFlush)
		}
	})
}

// TestTelemetryOffStatsNilSafe pins the nil path: without WithTelemetry
// the summary fields stay zero and nothing panics.
func TestTelemetryOffStatsNilSafe(t *testing.T) {
	r, err := New(WithEpsilon(0.25), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	churnTelemetry(t, r.Insert, r.Delete, 500, 3)
	st, ok := r.Stats()
	if !ok {
		t.Fatal("stats missing")
	}
	if st.LatencyP99 != 0 || st.FlushP99 != 0 {
		t.Fatalf("telemetry-off Stats carries p99s: %v %v", st.LatencyP99, st.FlushP99)
	}
	s, err := NewSharded(WithShards(2), WithEpsilon(0.25), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	churnTelemetry(t, s.Insert, s.Delete, 500, 4)
	sst, ok := s.Stats()
	if !ok {
		t.Fatal("sharded stats missing")
	}
	if sst.LatencyP99 != 0 || sst.FlushP99 != 0 {
		t.Fatalf("telemetry-off sharded Stats carries p99s: %v %v", sst.LatencyP99, sst.FlushP99)
	}
}

// TestFlushCopyRealBackendsOnly: FlushCopy times flush move loops, so it
// holds one observation per completed flush, with time in it, on a real
// backend, and none at all on the metered backend (no row of zeros).
func TestFlushCopyRealBackendsOnly(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"amortized", []Option{WithCore(CorePODS14), WithVariant(Amortized)}},
		{"checkpointed", []Option{WithCore(CorePODS14), WithVariant(Checkpointed)}},
		{"deamortized", []Option{WithCore(CorePODS14), WithVariant(Deamortized)}},
		{"fcs", []Option{WithCore(CoreFCS)}},
	} {
		for _, bk := range []Backend{Metered, HeapArena} {
			t.Run(tc.name+"/"+bk.String(), func(t *testing.T) {
				reg := telemetry.NewRegistry()
				r, err := New(append([]Option{WithEpsilon(0.25), WithBackend(bk), WithTelemetry(reg)}, tc.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				churnTelemetry(t, r.Insert, r.Delete, 4000, 11)
				if err := r.Drain(); err != nil {
					t.Fatal(err)
				}
				flushes := r.Flushes()
				if flushes == 0 {
					t.Fatal("churn ran no flush")
				}
				var snap telemetry.Snapshot
				reg.ReadSnapshot(&snap)
				if got := snap.FlushMoved.Count; got != flushes {
					t.Fatalf("FlushMoved count = %d, want one per flush (%d)", got, flushes)
				}
				want := flushes
				if bk == Metered {
					want = 0
				}
				if got := snap.FlushCopy.Count; got != want {
					t.Fatalf("FlushCopy count = %d, want %d (%d flushes)", got, want, flushes)
				}
				if want > 0 && snap.FlushCopy.Sum <= 0 {
					t.Fatalf("FlushCopy sum = %d over %d flushes", snap.FlushCopy.Sum, want)
				}
			})
		}
	}
}

// TestObserverFromShardZero is the regression test for the adapter bug
// where every event from shard i carried FromShard == i: FromShard is
// documented migrate-only, so ordinary events from nonzero shards must
// report 0.
func TestObserverFromShardZero(t *testing.T) {
	var mu sync.Mutex
	sawNonzeroShard := false
	s, err := NewSharded(WithShards(4), WithEpsilon(0.25),
		WithObserver(func(e Event) {
			mu.Lock()
			defer mu.Unlock()
			if e.Shard != 0 {
				sawNonzeroShard = true
			}
			if e.Kind != EventMigrate && e.FromShard != 0 {
				t.Errorf("%v event on shard %d has FromShard %d, want 0",
					e.Kind, e.Shard, e.FromShard)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	churnTelemetry(t, s.Insert, s.Delete, 2000, 5)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if !sawNonzeroShard {
		t.Fatal("workload never touched a nonzero shard; test proves nothing")
	}
}

// TestObserverFlushSpanReplay checks the span stream: with telemetry
// armed every completed flush is replayed as one EventFlushSpan right
// after its EventFlushEnd, carrying chunk count, moved volume, and the
// stall/active timing split; without telemetry no span ever appears.
func TestObserverFlushSpanReplay(t *testing.T) {
	type span struct{ chunks, moved, stall, active int64 }
	var mu sync.Mutex
	var spans []span
	lastKind := EventKind(255)
	reg := telemetry.NewRegistry()
	r, err := New(WithEpsilon(0.25), WithVariant(Deamortized), WithTelemetry(reg),
		WithObserver(func(e Event) {
			mu.Lock()
			defer mu.Unlock()
			if e.Kind == EventFlushSpan {
				if lastKind != EventFlushEnd {
					t.Errorf("span not adjacent to flush-end (followed %v)", lastKind)
				}
				spans = append(spans, span{e.ID, e.Size, e.From, e.To})
			}
			lastKind = e.Kind
		}))
	if err != nil {
		t.Fatal(err)
	}
	churnTelemetry(t, r.Insert, r.Delete, 4000, 6)
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	reg.ReadSnapshot(&snap)
	if int64(len(spans)) != snap.FlushDuration.Count {
		t.Fatalf("%d spans for %d recorded flushes", len(spans), snap.FlushDuration.Count)
	}
	if len(spans) == 0 {
		t.Fatal("no flushes observed; test proves nothing")
	}
	sawMoved := false
	for _, sp := range spans {
		// A flush that moved volume executed at least one plan chunk; a
		// log-drain-only flush legitimately reports zero.
		if sp.moved > 0 && sp.chunks < 1 {
			t.Errorf("span moved %d cells in %d chunks", sp.moved, sp.chunks)
		}
		if sp.moved < 0 || sp.stall < 0 || sp.active < 0 {
			t.Errorf("negative span fields: %+v", sp)
		}
		if sp.stall > sp.active {
			t.Errorf("span stall %dns exceeds active %dns", sp.stall, sp.active)
		}
		if sp.moved > 0 {
			sawMoved = true
		}
	}
	if !sawMoved {
		t.Error("no span moved any volume")
	}

	// Without telemetry the spans must not exist: the timings they carry
	// are never measured.
	sawSpan := false
	r2, err := New(WithEpsilon(0.25), WithVariant(Deamortized),
		WithObserver(func(e Event) {
			if e.Kind == EventFlushSpan {
				sawSpan = true
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	churnTelemetry(t, r2.Insert, r2.Delete, 2000, 7)
	if err := r2.Drain(); err != nil {
		t.Fatal(err)
	}
	if sawSpan {
		t.Fatal("flush span emitted without WithTelemetry")
	}
}

// TestMetricsEndpointLiveChurn scrapes /metrics while a sharded
// reallocator churns concurrently: the acceptance check that the
// Prometheus surface holds per-shard op-latency and flush-duration
// histograms under live load.
func TestMetricsEndpointLiveChurn(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := NewSharded(WithShards(2), WithEpsilon(0.25), WithVariant(Deamortized),
		WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(telemetry.NewServeMux(reg))
	defer srv.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 8))
			next := int64(w)*1_000_000 + 1
			var live []int64
			for !stop.Load() {
				if len(live) == 0 || rng.Float64() < 0.6 {
					if err := s.Insert(next, 1+rng.Int64N(64)); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
					live = append(live, next)
					next++
				} else {
					i := rng.IntN(len(live))
					if err := s.Delete(live[i]); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
		}(w)
	}

	deadline := time.Now().Add(5 * time.Second)
	wanted := []string{
		`realloc_insert_latency_seconds_bucket{shard="0",`,
		`realloc_insert_latency_seconds_bucket{shard="1",`,
		`realloc_flush_duration_seconds_bucket{shard="0",`,
		`realloc_flush_duration_seconds_count{shard="1"}`,
	}
	var body string
	for time.Now().Before(deadline) {
		resp, err := srv.Client().Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("/metrics status %d", resp.StatusCode)
		}
		body = string(b)
		ok := true
		for _, w := range wanted {
			if !strings.Contains(body, w) {
				ok = false
			}
		}
		if ok {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	for _, w := range wanted {
		if !strings.Contains(body, w) {
			t.Errorf("live /metrics never served %q", w)
		}
	}
}

// TestReadStatsTelemetryAllocationFree extends the aggregate-read
// allocation pin to the telemetry-armed path: ReadStats now also folds
// a registry snapshot into the summary fields, and must stay 0
// allocs/op through the pooled snapshot.
func TestReadStatsTelemetryAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	reg := telemetry.NewRegistry()
	s, err := NewSharded(WithShards(4), WithEpsilon(0.25), WithMetrics(), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	churnTelemetry(t, s.Insert, s.Delete, 2000, 9)
	var st Stats
	s.ReadStats(&st) // warm pools and maps
	if n := testing.AllocsPerRun(100, func() { s.ReadStats(&st) }); n != 0 {
		t.Fatalf("telemetry-armed ReadStats allocates %.1f per call, want 0", n)
	}
	if st.LatencyP99 <= 0 {
		t.Fatalf("LatencyP99 = %v, want > 0", st.LatencyP99)
	}
}

// TestSoakTelemetry is the telemetry-enabled soak the nightly job runs
// (its -run regex 'TestSoak' matches): a long churn on a rebalancing
// sharded reallocator with telemetry armed, asserting at the end that
// the telemetry snapshot is consistent with the trace metrics and the
// structure's invariants still hold. REALLOC_SOAK_OPS scales the run.
func TestSoakTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	ops := 60000
	if v := os.Getenv("REALLOC_SOAK_OPS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad REALLOC_SOAK_OPS %q: %v", v, err)
		}
		ops = n
	}
	reg := telemetry.NewRegistry()
	s, err := NewSharded(WithShards(4), WithEpsilon(0.25), WithVariant(Deamortized),
		WithMetrics(), WithTelemetry(reg),
		WithRebalance(RebalancePolicy{
			Mode: RebalanceInline, Threshold: 1.3, CheckEvery: 64, BatchObjects: 128,
		}))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2026, 7))
	var live []int64
	next := int64(1)
	var inserts, deletes int64
	for op := 0; op < ops; op++ {
		if len(live) == 0 || rng.Float64() < 0.55 {
			size := int64(1 + rng.Int64N(128))
			if rng.IntN(200) == 0 {
				size = 1 + rng.Int64N(8192)
			}
			if err := s.Insert(next, size); err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
			live = append(live, next)
			next++
			inserts++
		} else {
			i := rng.IntN(len(live))
			if err := s.Delete(live[i]); err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			deletes++
		}
		if op%10000 == 9999 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	st, ok := s.Stats()
	if !ok {
		t.Fatal("stats missing")
	}
	var snap telemetry.Snapshot
	reg.ReadSnapshot(&snap)
	// Every op issued through the facade is one latency observation.
	if snap.InsertLatency.Count != inserts || snap.DeleteLatency.Count != deletes {
		t.Errorf("telemetry op counts (%d, %d) != issued (%d, %d)",
			snap.InsertLatency.Count, snap.DeleteLatency.Count, inserts, deletes)
	}
	// Every completed flush records exactly one duration and one moved-
	// volume observation, and the trace metrics count the same flushes.
	if snap.FlushDuration.Count != st.Flushes {
		t.Errorf("telemetry flush count %d != metrics %d", snap.FlushDuration.Count, st.Flushes)
	}
	if snap.FlushMoved.Count != st.Flushes {
		t.Errorf("flush-moved count %d != flushes %d", snap.FlushMoved.Count, st.Flushes)
	}
	// Flush-moved volume is the subset of all moved volume that flush
	// plans executed.
	if snap.FlushMoved.Sum <= 0 || snap.FlushMoved.Sum > st.MovedVolume {
		t.Errorf("flush moved sum %d outside (0, %d]", snap.FlushMoved.Sum, st.MovedVolume)
	}
	// One migration latency observation per migrated object.
	if snap.MigrateLatency.Count != st.Migrations {
		t.Errorf("migrate latency count %d != migrations %d", snap.MigrateLatency.Count, st.Migrations)
	}
	if st.Migrations == 0 {
		t.Log("no migrations triggered this run; migrate-latency assertions vacuous")
	}
	// Quantiles are ordered and the structure's checkpoint mirror agrees
	// with the metrics recorder's count.
	for name, h := range map[string]*telemetry.HistSnapshot{
		"insert": &snap.InsertLatency, "flush": &snap.FlushDuration,
	} {
		p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
		if p50 > p99 || p99 > h.Max {
			t.Errorf("%s quantiles unordered: p50 %d p99 %d max %d", name, p50, p99, h.Max)
		}
	}
	if snap.Checkpoints != st.Checkpoints {
		t.Errorf("telemetry checkpoint mirror %d != metrics %d", snap.Checkpoints, st.Checkpoints)
	}
}
