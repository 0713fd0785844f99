package realloc_test

// The benchmark suite regenerates the experiments listed by
// `reallocbench -list` (BenchmarkE1..BenchmarkE10 — one per table/figure
// reproduced from the paper; see README's "Experiment harness") and
// measures raw request throughput for the three reallocator variants and
// every baseline allocator.
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"realloc"
	"realloc/internal/addrspace"
	"realloc/internal/baseline"
	"realloc/internal/core"
	"realloc/internal/engine"
	"realloc/internal/exp"
	"realloc/internal/telemetry"
	"realloc/internal/trace"
	"realloc/internal/workload"
)

// benchExperiment runs one harness experiment per iteration and reports a
// headline finding as a custom metric.
func benchExperiment(b *testing.B, id string, metricKey, metricName string) {
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := e.Run(exp.Config{Seed: 1, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if metricKey != "" {
			last = res.Findings[metricKey]
		}
	}
	if metricKey != "" {
		b.ReportMetric(last, metricName)
	}
}

func BenchmarkE1FootprintVsEpsilon(b *testing.B) {
	benchExperiment(b, "E1", "amortized/0.1/structRatio", "footprint-ratio@eps=0.1")
}

func BenchmarkE2CostObliviousness(b *testing.B) {
	benchExperiment(b, "E2", "0.1/unit/ratio", "unit-cost-ratio@eps=0.1")
}

func BenchmarkE3BaselineCrossover(b *testing.B) {
	benchExperiment(b, "E3", "unitkiller/1024/logcompact/perDeletion", "logcompact-cost/deletion@1024")
}

func BenchmarkE4NoMoveLowerBound(b *testing.B) {
	benchExperiment(b, "E4", "10/firstfit/finalRatio", "firstfit-footprint-ratio@maxExp=10")
}

func BenchmarkE5Defrag(b *testing.B) {
	benchExperiment(b, "E5", "0.25/meanMoves", "moves/object@eps=0.25")
}

func BenchmarkE6Checkpoints(b *testing.B) {
	benchExperiment(b, "E6", "0.1/maxCkptPerFlush", "max-ckpts/flush@eps=0.1")
}

func BenchmarkE7Deamortized(b *testing.B) {
	benchExperiment(b, "E7", "deamortized/maxOpVolume", "max-op-volume")
}

func BenchmarkE8LowerBound(b *testing.B) {
	benchExperiment(b, "E8", "1024/amortized/linear", "maxOp/f(delta)@1024")
}

func BenchmarkE9Figures(b *testing.B) {
	benchExperiment(b, "E9", "fig1/after", "fig1-footprint-after")
}

func BenchmarkE10Ablations(b *testing.B) {
	benchExperiment(b, "E10", "epsPrime/4/structRatio", "struct-ratio@eps'/4")
}

func BenchmarkE11DatabaseEndToEnd(b *testing.B) {
	benchExperiment(b, "E11", "deamortized/hdd/ratio", "hdd-cost-ratio")
}

func BenchmarkE12PriceOfObliviousness(b *testing.B) {
	benchExperiment(b, "E12", "premium/linear", "linear-premium")
}

func BenchmarkE13ShardScaling(b *testing.B) {
	benchExperiment(b, "E13", "shards/8/speedup", "8-shard-speedup")
}

// benchChurnTarget measures steady-state request throughput.
func benchChurnTarget(b *testing.B, t workload.Target) {
	benchChurnTargetVolume(b, t, 100000)
}

// benchChurnTargetVolume is benchChurnTarget with an explicit live-volume
// target: the structure is warmed to steady state at that volume outside
// the timer, so the timed region measures only steady churn.
func benchChurnTargetVolume(b *testing.B, t workload.Target, vol int64) {
	churn := &workload.Churn{
		Seed:         7,
		Sizes:        workload.Uniform{Min: 1, Max: 256},
		TargetVolume: vol,
	}
	// Warm up to steady state outside the timer: reach the target volume
	// (mean object size is ~128 cells) and then churn past a few flushes.
	warm := int(vol/128)*2 + 3000
	if _, err := workload.Drive(t, churn, warm); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, _ := churn.Next()
		var err error
		if op.Insert {
			err = t.Insert(op.ID, op.Size)
		} else {
			err = t.Delete(op.ID)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func newVariant(b *testing.B, v core.Variant) *core.Reallocator {
	r, err := core.New(core.Config{Epsilon: 0.25, Variant: v, Recorder: trace.Null{}})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// newFCS builds the successor core behind the engine boundary, so the
// churn benchmarks price both cores over identical streams.
func newFCS(b *testing.B) engine.Engine {
	e, err := engine.New(engine.Config{Core: engine.FCS, Epsilon: 0.25, Recorder: trace.Null{}})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkChurnScaling sweeps steady-state churn across live volumes of
// 1e4, 1e5, and 1e6 cells for all three variants of the reference core
// plus the FCS successor, making per-op growth visible in one run. Per-op
// cost should stay near-flat across the sweep (the amortized flush bound
// is O(1/ε) volume per request; the successor's swap/rebuild bound is
// O(1/ε) too); superlinear growth here means a core's bookkeeping is
// outrunning its paper's bound. CI runs this with -benchmem and trips on
// a 1e5→1e6 blowup.
func BenchmarkChurnScaling(b *testing.B) {
	for _, v := range []core.Variant{core.Amortized, core.Checkpointed, core.Deamortized} {
		for _, vol := range []int64{10000, 100000, 1000000} {
			b.Run(fmt.Sprintf("%s/cells=%d", v, vol), func(b *testing.B) {
				benchChurnTargetVolume(b, newVariant(b, v), vol)
			})
		}
	}
	for _, vol := range []int64{10000, 100000, 1000000} {
		b.Run(fmt.Sprintf("fcs/cells=%d", vol), func(b *testing.B) {
			benchChurnTargetVolume(b, newFCS(b), vol)
		})
	}
}

func BenchmarkChurnAmortized(b *testing.B)    { benchChurnTarget(b, newVariant(b, core.Amortized)) }
func BenchmarkChurnCheckpointed(b *testing.B) { benchChurnTarget(b, newVariant(b, core.Checkpointed)) }
func BenchmarkChurnDeamortized(b *testing.B)  { benchChurnTarget(b, newVariant(b, core.Deamortized)) }
func BenchmarkChurnFirstFit(b *testing.B)     { benchChurnTarget(b, baseline.NewFirstFit(nil)) }
func BenchmarkChurnBestFit(b *testing.B)      { benchChurnTarget(b, baseline.NewBestFit(nil)) }
func BenchmarkChurnBuddy(b *testing.B)        { benchChurnTarget(b, baseline.NewBuddy(nil)) }
func BenchmarkChurnFCS(b *testing.B)          { benchChurnTarget(b, newFCS(b)) }
func BenchmarkChurnLogCompact(b *testing.B)   { benchChurnTarget(b, baseline.NewLogCompact(nil)) }
func BenchmarkChurnClassGap(b *testing.B)     { benchChurnTarget(b, baseline.NewClassGap(nil)) }

// BenchmarkChurnTelemetry prices the telemetry layer itself: the same
// steady-state churn through the public facade with telemetry off and
// on, for an amortized and a deamortized core, on the metered backend
// (<variant>/off|on) and on the heap arena (<variant>_heap/off|on).
// cmd/benchgate's -overhead lane compares each on/off pair and fails CI
// when arming telemetry costs more than 10%. The recording budget is two
// atomic adds plus two clock reads per op, and per flush a few histogram
// records. No clock is read per copy: the substrate times each chunk of
// moves on a real backend whether telemetry is on or off, so the heap
// lanes see the recording cost and nothing else.
func BenchmarkChurnTelemetry(b *testing.B) {
	for _, v := range []realloc.Variant{realloc.Amortized, realloc.Deamortized} {
		for _, bk := range []realloc.Backend{realloc.Metered, realloc.HeapArena} {
			lane := v.String()
			if bk != realloc.Metered {
				lane += "_" + bk.String()
			}
			for _, mode := range []string{"off", "on"} {
				b.Run(lane+"/"+mode, func(b *testing.B) {
					opts := []realloc.Option{realloc.WithEpsilon(0.25), realloc.WithVariant(v), realloc.WithBackend(bk)}
					if mode == "on" {
						opts = append(opts, realloc.WithTelemetry(telemetry.NewRegistry()))
					}
					r, err := realloc.New(opts...)
					if err != nil {
						b.Fatal(err)
					}
					benchChurnTargetVolume(b, publicAdapter{r}, 100000)
				})
			}
		}
	}
}

// BenchmarkChurnBackend prices what paying real memmoves costs: the
// same steady-state churn through the public facade on the metered
// backend (moved volume is counted, no bytes exist) and on the heap
// arena (every relocation physically copies the object's extent), for
// the reference and the FCS core. cmd/benchgate's -bytes lane compares
// each heap/metered pair and fails CI when real copies inflate per-op
// cost beyond its bound — the honest price of the cost model's "moved
// volume" unit.
func BenchmarkChurnBackend(b *testing.B) {
	for _, c := range []realloc.Core{realloc.CorePODS14, realloc.CoreFCS} {
		for _, bk := range []realloc.Backend{realloc.Metered, realloc.HeapArena} {
			b.Run(fmt.Sprintf("%s/%s", c, bk), func(b *testing.B) {
				r, err := realloc.New(realloc.WithEpsilon(0.25), realloc.WithCore(c), realloc.WithBackend(bk))
				if err != nil {
					b.Fatal(err)
				}
				benchChurnTargetVolume(b, publicAdapter{r}, 100000)
			})
		}
	}
}

// concurrentTarget is the surface the parallel churn benchmarks drive;
// the locked single-core facade and the sharded facade both satisfy it.
type concurrentTarget interface {
	Insert(id int64, size int64) error
	Delete(id int64) error
}

// benchParallelChurn measures concurrent churn throughput with
// b.RunParallel: each goroutine works a private id space (goroutine index
// in the high bits) and holds its live volume near a per-goroutine
// target, so every timed iteration is exactly one Insert or Delete.
// Every worker's population is seeded to the steady-state volume outside
// the timer, so the timed region measures steady churn rather than
// initial growth no matter what b.N the harness picks.
func benchParallelChurn(b *testing.B, t concurrentTarget) {
	type obj struct{ id, size int64 }
	type state struct {
		rng  *rand.Rand
		next int64
		live []obj
		vol  int64
	}
	const targetVol = 1 << 17
	const maxSize = 16
	workers := runtime.GOMAXPROCS(0)
	states := make([]*state, workers)
	for w := range states {
		st := &state{rng: rand.New(rand.NewPCG(uint64(w+1), 0x5a4d)), next: 1}
		base := int64(w+1) << 40
		for st.vol < targetVol {
			id := base | st.next
			st.next++
			size := int64(1 + st.rng.IntN(maxSize))
			if err := t.Insert(id, size); err != nil {
				b.Fatal(err)
			}
			st.live = append(st.live, obj{id, size})
			st.vol += size
		}
		states[w] = st
	}
	b.ReportAllocs()
	b.ResetTimer()
	var worker atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		i := int(worker.Add(1)) - 1
		if i >= len(states) {
			b.Error("more parallel goroutines than GOMAXPROCS")
			return
		}
		st := states[i]
		base := int64(i+1) << 40
		for pb.Next() {
			if st.vol < targetVol || st.rng.IntN(2) == 0 {
				id := base | st.next
				st.next++
				size := int64(1 + st.rng.IntN(maxSize))
				if err := t.Insert(id, size); err != nil {
					b.Error(err)
					return
				}
				st.live = append(st.live, obj{id, size})
				st.vol += size
			} else {
				j := st.rng.IntN(len(st.live))
				o := st.live[j]
				st.live[j] = st.live[len(st.live)-1]
				st.live = st.live[:len(st.live)-1]
				if err := t.Delete(o.id); err != nil {
					b.Error(err)
					return
				}
				st.vol -= o.size
			}
		}
	})
}

// BenchmarkShardedChurnLocked1 is the single-lock baseline the sharded
// configurations are measured against; compare ns/op (one op each):
//
//	go test -bench Sharded -cpu 8
func BenchmarkShardedChurnLocked1(b *testing.B) {
	r, err := realloc.New(realloc.WithEpsilon(0.25), realloc.WithLocking())
	if err != nil {
		b.Fatal(err)
	}
	benchParallelChurn(b, r)
}

func benchShardedChurn(b *testing.B, shards int) {
	s, err := realloc.NewSharded(realloc.WithEpsilon(0.25), realloc.WithShards(shards))
	if err != nil {
		b.Fatal(err)
	}
	benchParallelChurn(b, s)
}

func BenchmarkShardedChurn2(b *testing.B) { benchShardedChurn(b, 2) }
func BenchmarkShardedChurn4(b *testing.B) { benchShardedChurn(b, 4) }
func BenchmarkShardedChurn8(b *testing.B) { benchShardedChurn(b, 8) }

// benchShardedSkew replays a zipf-skewed churn stream — most of the live
// volume aimed at one static hash home — across 8 workers, with the
// stream partitioned by id so per-id op order is preserved. The static
// build pays twice for the skew: workers serialize on the hot shard's
// lock, and that shard's per-op churn cost grows superlinearly with its
// live volume (see ROADMAP); the rebalancing build levels the volume and
// escapes both. Compare:
//
//	go test -bench ShardedSkew8 -cpu 8
func benchShardedSkew(b *testing.B, rebal bool) {
	const shards, workers = 8, 8
	gen := &workload.ZipfChurn{
		Seed:         99,
		Sizes:        workload.Uniform{Min: 1, Max: 128},
		TargetVolume: 3200000,
		Homes:        shards,
		S:            1.8,
	}
	seqs := make([][]workload.Op, workers)
	for _, op := range workload.Collect(gen, b.N) {
		w := int(op.ID) % workers
		seqs[w] = append(seqs[w], op)
	}
	opts := []realloc.Option{realloc.WithShards(shards), realloc.WithEpsilon(0.25)}
	if rebal {
		opts = append(opts, realloc.WithRebalance(realloc.RebalancePolicy{
			Mode:         realloc.RebalanceInline,
			Threshold:    1.25,
			CheckEvery:   32,
			BatchObjects: 512,
		}))
	}
	s, err := realloc.NewSharded(opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seq []workload.Op) {
			defer wg.Done()
			for _, op := range seq {
				var err error
				if op.Insert {
					err = s.Insert(int64(op.ID), op.Size)
				} else {
					err = s.Delete(int64(op.ID))
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(seqs[w])
	}
	wg.Wait()
	b.StopTimer()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkShardedSkew8(b *testing.B) {
	b.Run("static", func(b *testing.B) { benchShardedSkew(b, false) })
	b.Run("rebalance", func(b *testing.B) { benchShardedSkew(b, true) })
}

// benchShardedParallelMix drives a fixed-width sharded reallocator from
// GOMAXPROCS goroutines, each owning a disjoint exp.MixStream (the same
// driver experiment E15 runs, so the CI gate and the experiment harness
// measure one workload): readPct% of the timed iterations are reads
// (alternating Extent and Has on a random live id) and the rest churn
// steps that hold each worker's live volume near its target. The shard
// count is pinned at 8 so `-cpu 1,2,4,8` sweeps parallelism over an
// identical structure; the cores→throughput curve is the scaling result
// (see BENCH_ci_scaling).
func benchShardedParallelMix(b *testing.B, readPct int) {
	const shards = 8
	const targetVol = 1 << 15
	const maxSize = 16
	s, err := realloc.NewSharded(realloc.WithEpsilon(0.25), realloc.WithShards(shards))
	if err != nil {
		b.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)
	streams := make([]*exp.MixStream, workers)
	for w := range streams {
		streams[w] = exp.NewMixStream(uint64(w+1), w, targetVol, maxSize)
		if err := streams[w].Seed(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var worker atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		i := int(worker.Add(1)) - 1
		if i >= len(streams) {
			b.Error("more parallel goroutines than GOMAXPROCS")
			return
		}
		m := streams[i]
		for pb.Next() {
			if err := m.Step(s, readPct); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// benchShardedParallelZipf is the zipf-skewed variant: each worker
// replays a private ZipfChurn stream (disjoint ids via FirstID, hash
// homes concentrated by the zipf law), so the hot shard's lock is the
// contended resource the scaling curve exposes.
func benchShardedParallelZipf(b *testing.B) {
	const shards = 8
	const targetVol = 1 << 15
	s, err := realloc.NewSharded(realloc.WithEpsilon(0.25), realloc.WithShards(shards))
	if err != nil {
		b.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)
	gens := make([]*workload.ZipfChurn, workers)
	for w := range gens {
		gens[w] = &workload.ZipfChurn{
			Seed:         uint64(w + 1),
			Sizes:        workload.Uniform{Min: 1, Max: 16},
			TargetVolume: targetVol,
			Homes:        shards,
			S:            1.2,
			FirstID:      addrspace.ID(1 + int64(w+1)<<40),
		}
		// Warm each stream to its steady-state volume outside the timer.
		for i := 0; i < targetVol/8*2+3000; i++ {
			op, ok := gens[w].Next()
			if !ok {
				break
			}
			var err error
			if op.Insert {
				err = s.Insert(int64(op.ID), op.Size)
			} else {
				err = s.Delete(int64(op.ID))
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var worker atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		i := int(worker.Add(1)) - 1
		if i >= len(gens) {
			b.Error("more parallel goroutines than GOMAXPROCS")
			return
		}
		gen := gens[i]
		for pb.Next() {
			op, ok := gen.Next()
			if !ok {
				b.Error("zipf stream ended")
				return
			}
			var err error
			if op.Insert {
				err = s.Insert(int64(op.ID), op.Size)
			} else {
				err = s.Delete(int64(op.ID))
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// benchShardedParallelMixBatched is benchShardedParallelMix with churn
// submitted through Apply in groups of batch ops (reads stay inline):
// the same MixStream workload E15's batched scenarios replay, so the
// per-op and batched scaling curves stay comparable. Each timed
// iteration is still one logical op; up to batch-1 churn ops per worker
// remain pending when the timer stops, which is noise at benchmark op
// counts.
func benchShardedParallelMixBatched(b *testing.B, readPct, batch int) {
	const shards = 8
	const targetVol = 1 << 15
	const maxSize = 16
	s, err := realloc.NewSharded(realloc.WithEpsilon(0.25), realloc.WithShards(shards))
	if err != nil {
		b.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)
	streams := make([]*exp.MixStream, workers)
	for w := range streams {
		streams[w] = exp.NewMixStream(uint64(w+1), w, targetVol, maxSize)
		if err := streams[w].Seed(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var worker atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		i := int(worker.Add(1)) - 1
		if i >= len(streams) {
			b.Error("more parallel goroutines than GOMAXPROCS")
			return
		}
		m := streams[i]
		for pb.Next() {
			if err := m.StepBatched(s, readPct, batch); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkShardedParallel is the parallel scaling suite: run with
//
//	go test -bench ShardedParallel -cpu 1,2,4,8
//
// and compare ns/op across the -cpu sweep. cmd/benchgate's scaling gate
// enforces the mixed curve in CI. The Batch64 lanes submit churn
// through Apply — the batched path amortizes the shard lock, mirror
// publish, and telemetry stamp across the group, so their curves bound
// what batching buys under parallel load.
func BenchmarkShardedParallel(b *testing.B) {
	b.Run("read", func(b *testing.B) { benchShardedParallelMix(b, 100) })
	b.Run("mixed", func(b *testing.B) { benchShardedParallelMix(b, 95) })
	b.Run("churnUniform", func(b *testing.B) { benchShardedParallelMix(b, 0) })
	b.Run("churnZipf", benchShardedParallelZipf)
	b.Run("mixedBatch64", func(b *testing.B) { benchShardedParallelMixBatched(b, 95, 64) })
	b.Run("churnBatch64", func(b *testing.B) { benchShardedParallelMixBatched(b, 0, 64) })
}

// benchBatchChurnSetup builds the batched-vs-per-op pricing workload
// the benchgate -batch lane compares: stack-order churn (delete the
// most recently inserted objects, then re-insert them) over a small
// resident set of size-1 objects, on the FCS core at ε=1 with
// telemetry armed. Stack-order deletes never trigger the core's
// hole-filling swap move and the tiny resident set keeps index and
// map costs minimal, so the request mix is dominated by front-end
// cost — route, shard lock, mirror publish, telemetry stamp — which
// is exactly what the group entry amortizes and the gate prices. The
// returned 64-op batch is what both lanes replay; one timed iteration
// is one logical op in either lane.
func benchBatchChurnSetup(b *testing.B) (*realloc.ShardedReallocator, realloc.Batch) {
	s, err := realloc.NewSharded(
		realloc.WithEpsilon(1), realloc.WithShards(1),
		realloc.WithCore(realloc.CoreFCS),
		realloc.WithTelemetry(telemetry.NewRegistry()),
	)
	if err != nil {
		b.Fatal(err)
	}
	ids := []int64{1, 2, 3, 4}
	for _, id := range ids {
		if err := s.Insert(id, 1); err != nil {
			b.Fatal(err)
		}
	}
	batch := make(realloc.Batch, 0, 64)
	for i := 0; i < 16; i++ {
		batch = append(batch,
			realloc.DeleteOp(4), realloc.DeleteOp(3),
			realloc.InsertOp(3, 1), realloc.InsertOp(4, 1),
		)
	}
	return s, batch
}

// BenchmarkBatchChurn pairs the lanes; cmd/benchgate's -batch mode
// fails CI when batch64 does not beat perOp by the gated factor.
func BenchmarkBatchChurn(b *testing.B) {
	b.Run("perOp", func(b *testing.B) {
		s, batch := benchBatchChurnSetup(b)
		b.ReportAllocs()
		b.ResetTimer()
		n := 0
		for n < b.N {
			for _, op := range batch {
				var err error
				if op.Kind == realloc.OpInsert {
					err = s.Insert(op.ID, op.Size)
				} else {
					err = s.Delete(op.ID)
				}
				if err != nil {
					b.Fatal(err)
				}
				if n++; n >= b.N {
					break
				}
			}
		}
	})
	b.Run("batch64", func(b *testing.B) {
		s, batch := benchBatchChurnSetup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n += len(batch) {
			if res := s.Apply(batch); res != nil {
				b.Fatal(res)
			}
		}
	})
}

// BenchmarkBatchSize sweeps the batch width over the same churn
// workload, mapping the amortization curve from the degenerate
// single-op batch to 512-op groups.
func BenchmarkBatchSize(b *testing.B) {
	for _, size := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("ops=%d", size), func(b *testing.B) {
			s, err := realloc.NewSharded(realloc.WithEpsilon(0.25), realloc.WithShards(8))
			if err != nil {
				b.Fatal(err)
			}
			m := exp.NewMixStream(11, 0, 1<<15, 16)
			if err := m.Seed(s); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.StepBatched(s, 0, size); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedAggregateReads measures the monitoring hot loop —
// the aggregate reads a metrics poller issues continuously against a
// live sharded reallocator. These are lock-free mirror reads, and the
// Append/Read forms must be allocation-free (b.ReportAllocs is the
// regression tripwire).
func BenchmarkShardedAggregateReads(b *testing.B) {
	s, err := realloc.NewSharded(
		realloc.WithEpsilon(0.25), realloc.WithShards(8), realloc.WithMetrics(),
	)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 0x5eed))
	for id := int64(1); id <= 4000; id++ {
		if err := s.Insert(id, int64(1+rng.IntN(64))); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("Volume", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.Volume()
		}
	})
	b.Run("Footprint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.Footprint()
		}
	})
	b.Run("Snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.Snapshot()
		}
	})
	b.Run("ReadSnapshot", func(b *testing.B) {
		b.ReportAllocs()
		var snap realloc.Snapshot
		for i := 0; i < b.N; i++ {
			s.ReadSnapshot(&snap)
		}
	})
	b.Run("ShardVolumes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.ShardVolumes()
		}
	})
	b.Run("AppendShardVolumes", func(b *testing.B) {
		b.ReportAllocs()
		vols := make([]int64, 0, s.Shards())
		for i := 0; i < b.N; i++ {
			vols = s.AppendShardVolumes(vols[:0])
		}
	})
	b.Run("Stats", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = s.Stats()
		}
	})
	b.Run("ReadStats", func(b *testing.B) {
		b.ReportAllocs()
		var st realloc.Stats
		for i := 0; i < b.N; i++ {
			_ = s.ReadStats(&st)
		}
	})
}

// BenchmarkPublicAPI measures the public facade's overhead.
func BenchmarkPublicAPI(b *testing.B) {
	r, err := realloc.New(realloc.WithEpsilon(0.25))
	if err != nil {
		b.Fatal(err)
	}
	churn := &workload.Churn{Seed: 3, Sizes: workload.Uniform{Min: 1, Max: 128}, TargetVolume: 50000}
	if _, err := workload.Drive(publicAdapter{r}, churn, 2000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, _ := churn.Next()
		var err error
		if op.Insert {
			err = r.Insert(int64(op.ID), op.Size)
		} else {
			err = r.Delete(int64(op.ID))
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// publicAdapter lets workload.Drive feed the public API.
type publicAdapter struct{ r *realloc.Reallocator }

func (p publicAdapter) Insert(id addrspace.ID, size int64) error {
	return p.r.Insert(int64(id), size)
}

func (p publicAdapter) Delete(id addrspace.ID) error {
	return p.r.Delete(int64(id))
}
