package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestBucketMath checks the bucket index/bound functions agree: every
// value lands in a bucket whose [lo, hi) range contains it, indices are
// monotone in the value, and the top of int64 stays inside the array.
func TestBucketMath(t *testing.T) {
	samples := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 15, 16, 23, 24,
		1 << 10, 3 << 9, (3 << 9) - 1, 1<<62 - 1, 1 << 62, math.MaxInt64}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		samples = append(samples, r.Int63())
	}
	prevIdx, prevV := 0, int64(0)
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, v := range samples {
		i := bucketOf(v)
		if i < 0 || i >= NumBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, i)
		}
		if i > 124 {
			t.Fatalf("bucketOf(%d) = %d beyond top occupied index 124", v, i)
		}
		if lo, hi := bucketLo(i), bucketHi(i); v < lo || (v >= hi && hi != math.MaxInt64) || v > hi {
			t.Fatalf("value %d not in bucket %d range [%d, %d)", v, i, lo, hi)
		}
		if v >= prevV && i < prevIdx {
			t.Fatalf("bucket index not monotone: %d->%d for %d->%d", prevIdx, i, prevV, v)
		}
		prevIdx, prevV = i, v
	}
	// Bucket ranges tile the line: each bucket starts where the previous
	// one ends.
	for i := 0; i < 124; i++ {
		if bucketHi(i) != bucketLo(i+1) {
			t.Fatalf("gap between bucket %d (hi %d) and %d (lo %d)",
				i, bucketHi(i), i+1, bucketLo(i+1))
		}
	}
	if bucketOf(math.MaxInt64) != 124 {
		t.Fatalf("bucketOf(MaxInt64) = %d, want 124", bucketOf(math.MaxInt64))
	}
}

// TestHistogramRecord checks sum/count/max bookkeeping and the negative
// clamp.
func TestHistogramRecord(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 5, 100, 7, -3} {
		h.Record(v)
	}
	var s HistSnapshot
	h.AddTo(&s)
	if s.Count != 6 {
		t.Fatalf("Count = %d, want 6", s.Count)
	}
	if s.Sum != 113 { // -3 clamps to 0
		t.Fatalf("Sum = %d, want 113", s.Sum)
	}
	if s.Max != 100 {
		t.Fatalf("Max = %d, want 100", s.Max)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("Quantile(1) = %d, want clamp to max 100", got)
	}
}

// TestHistogramRecordN pins RecordN(v, n) as exactly n Record(v) calls,
// including the negative clamp and the no-op on n <= 0.
func TestHistogramRecordN(t *testing.T) {
	var coalesced, looped Histogram
	for _, c := range []struct{ v, n int64 }{{0, 3}, {5, 64}, {100, 1}, {-3, 2}, {7, 0}, {9, -1}} {
		coalesced.RecordN(c.v, c.n)
		for i := int64(0); i < c.n; i++ {
			looped.Record(c.v)
		}
	}
	var a, b HistSnapshot
	coalesced.AddTo(&a)
	looped.AddTo(&b)
	if a != b {
		t.Fatalf("RecordN diverged from looped Record:\n got %+v\nwant %+v", a, b)
	}
	if a.Count != 70 || a.Max != 100 {
		t.Fatalf("Count/Max = %d/%d, want 70/100", a.Count, a.Max)
	}
}

// quantileOracle is the exact empirical quantile the histogram
// approximates: the rank-⌈q·n⌉ element of the sorted sample.
func quantileOracle(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestQuantileAccuracy bounds the histogram's quantile error against a
// sorted-slice oracle on uniform and lognormal samples. The estimator
// returns the midpoint of the oracle's bucket, so the relative error is
// bounded by half a bucket width (≤ 25%); the assertion allows 30% plus
// small absolute slack for the integer buckets at the bottom.
func TestQuantileAccuracy(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	dists := map[string]func() int64{
		"uniform":   func() int64 { return r.Int63n(1_000_000) },
		"lognormal": func() int64 { return int64(math.Exp(r.NormFloat64()*2 + 10)) },
	}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			var h Histogram
			xs := make([]int64, 0, 50_000)
			for i := 0; i < 50_000; i++ {
				v := draw()
				xs = append(xs, v)
				h.Record(v)
			}
			sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
			var s HistSnapshot
			h.AddTo(&s)
			for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
				want := quantileOracle(xs, q)
				got := s.Quantile(q)
				diff := math.Abs(float64(got - want))
				if diff > 0.30*float64(want)+4 {
					t.Errorf("q=%v: got %d, oracle %d (err %.1f%%)",
						q, got, want, 100*diff/float64(want))
				}
			}
			// Quantiles are monotone in q.
			prev := int64(-1)
			for q := 0.0; q <= 1.0; q += 0.05 {
				v := s.Quantile(q)
				if v < prev {
					t.Fatalf("Quantile not monotone at q=%v: %d < %d", q, v, prev)
				}
				prev = v
			}
		})
	}
}

// TestSnapshotMerge checks Merge against recording everything into one
// histogram.
func TestSnapshotMerge(t *testing.T) {
	var a, b, all Histogram
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		v := r.Int63n(1 << 20)
		all.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	var sa, sall HistSnapshot
	a.AddTo(&sa)
	b.AddTo(&sa) // AddTo accumulates, same as Merge of b's snapshot
	all.AddTo(&sall)
	if sa != sall {
		t.Fatalf("merged snapshot differs from single-histogram snapshot")
	}
	var sb HistSnapshot
	b.AddTo(&sb)
	var sm HistSnapshot
	a.AddTo(&sm)
	sm.Merge(&sb)
	if sm != sall {
		t.Fatalf("Merge differs from single-histogram snapshot")
	}
}

// TestRegistryShardGrowth checks lazy growth keeps earlier sets stable
// and concurrent Shard calls race-safely agree on the same pointers.
func TestRegistryShardGrowth(t *testing.T) {
	reg := NewRegistry()
	s0 := reg.Shard(0)
	s0.InsertLatency.Record(5)
	s3 := reg.Shard(3)
	if reg.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", reg.NumShards())
	}
	if reg.Shard(0) != s0 || reg.Shard(3) != s3 {
		t.Fatalf("Shard not stable across growth")
	}
	var snap Snapshot
	reg.ReadSnapshot(&snap)
	if snap.InsertLatency.Count != 1 || snap.Shards != 4 {
		t.Fatalf("snapshot lost data across growth: %+v", snap.InsertLatency)
	}
	reg.ReadShardSnapshot(1, &snap)
	if snap.InsertLatency.Count != 0 || snap.Shards != 1 {
		t.Fatalf("ReadShardSnapshot(1) = count %d shards %d, want 0/1",
			snap.InsertLatency.Count, snap.Shards)
	}
	reg.ReadShardSnapshot(99, &snap)
	if snap.Shards != 0 {
		t.Fatalf("ReadShardSnapshot out of range reported %d shards", snap.Shards)
	}

	var wg sync.WaitGroup
	sets := make([]*Set, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < 64; i += 8 {
				sets[i] = reg.Shard(i)
			}
		}(g)
	}
	wg.Wait()
	for i, s := range sets {
		if s == nil || reg.Shard(i) != s {
			t.Fatalf("concurrent Shard(%d) disagreed", i)
		}
	}
}

// TestConcurrentRecordSnapshot hammers one registry with writers on
// every metric while readers snapshot continuously; run under -race
// this is the data-race proof, and in any mode the final aggregate must
// account for every recorded observation.
func TestConcurrentRecordSnapshot(t *testing.T) {
	reg := NewRegistry()
	const shards, perG = 4, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			set := reg.Shard(i)
			r := rand.New(rand.NewSource(int64(i)))
			for n := 0; n < perG; n++ {
				v := r.Int63n(1 << 30)
				set.InsertLatency.Record(v)
				set.DeleteLatency.Record(v / 2)
				set.FlushDuration.Record(v / 3)
				set.FlushMoved.Record(v % 1000)
				set.Checkpoints.Add(1)
			}
		}(i)
	}
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var snap Snapshot
			for {
				select {
				case <-stop:
					return
				default:
				}
				reg.ReadSnapshot(&snap)
				// Torn-free invariant: derived count can never exceed what
				// writers have finished recording.
				if snap.InsertLatency.Count > shards*perG {
					t.Errorf("snapshot over-counts: %d", snap.InsertLatency.Count)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	var snap Snapshot
	reg.ReadSnapshot(&snap)
	for name, got := range map[string]int64{
		"insert": snap.InsertLatency.Count,
		"delete": snap.DeleteLatency.Count,
		"flush":  snap.FlushDuration.Count,
		"moved":  snap.FlushMoved.Count,
		"ckpt":   snap.Checkpoints,
	} {
		if got != shards*perG {
			t.Errorf("final %s count = %d, want %d", name, got, shards*perG)
		}
	}
}

// TestTelemetryReadsAllocationFree pins the no-allocation contract of
// the pooled read paths: aggregating a populated multi-shard registry
// into a reused snapshot must not touch the heap.
func TestTelemetryReadsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	reg := NewRegistry()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		set := reg.Shard(i)
		for n := 0; n < 1000; n++ {
			set.InsertLatency.Record(r.Int63n(1 << 40))
			set.FlushDuration.Record(r.Int63n(1 << 25))
			set.BatchSize.Record(1 + r.Int63n(512))
		}
	}
	var snap Snapshot
	if a := testing.AllocsPerRun(100, func() { reg.ReadSnapshot(&snap) }); a != 0 {
		t.Fatalf("ReadSnapshot allocates %.1f/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { reg.ReadShardSnapshot(2, &snap) }); a != 0 {
		t.Fatalf("ReadShardSnapshot allocates %.1f/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		reg.ReadSnapshot(&snap)
		_ = snap.InsertLatency.Quantile(0.99)
		_ = snap.FlushDuration.Quantile(0.99)
		_ = snap.BatchSize.Quantile(0.99)
	}); a != 0 {
		t.Fatalf("snapshot + quantiles allocates %.1f/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { reg.Shard(2).InsertLatency.Record(17) }); a != 0 {
		t.Fatalf("Record allocates %.1f/op, want 0", a)
	}
}
