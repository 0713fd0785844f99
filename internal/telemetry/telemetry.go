// Package telemetry is the runtime observability layer: lock-free,
// allocation-free log-bucketed histograms and monotonic counters for
// wall-clock op latency, flush duration and stall, per-flush moved
// volume, session chunk sizes, and rebalancer migration latency.
//
// The competitive-ratio metrics in internal/trace answer "does the
// structure meet the paper's bounds"; this package answers "what does
// it feel like to run" — latency distributions with tails, not
// counters. Everything here follows the same publication idiom as the
// sharded front-end's seqlock'd stats mirror: writers touch only
// atomics, readers take no locks, and the pooled snapshot forms
// allocate nothing per read. Where the shard mirror uses a sequence
// counter because its fields must be mutually consistent, a histogram
// needs no seqlock at all: every bucket is an independent monotonic
// counter, so plain per-bucket atomics give multi-writer recording and
// torn-free reads — the skew between buckets read early and late is
// bounded by the handful of ops in flight during the read.
//
// Recording is two uncontended atomic adds (sum and one bucket) plus a
// load of the running max; the max CAS loop runs only on a new record
// high, which is vanishingly rare in steady state. A Histogram has ~2
// buckets per octave (HDR-style): values v share a bucket when they
// agree on floor(log2 v) and the bit below it, giving ≤ 25% relative
// quantile error across the full int64 range with a fixed 128-slot
// array and no allocation ever.
package telemetry

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every Histogram. Two buckets
// per octave over int64 needs 125 slots; 128 keeps the array
// power-of-two sized.
const NumBuckets = 128

// processEpoch anchors Now. Subtracting a process-local epoch keeps
// the monotonic reading small enough that nanosecond arithmetic never
// overflows and bucket indices stay low.
var processEpoch = time.Now()

// Now returns monotonic nanoseconds since process start. time.Since
// reads the runtime's monotonic clock, so Now is immune to wall-clock
// steps; one call costs a few tens of nanoseconds, which is why every
// recording site pairs exactly two of them.
func Now() int64 { return int64(time.Since(processEpoch)) }

// bucketOf maps a non-negative value to its bucket: index 0 holds
// {0,1}; above that, octave o = floor(log2 v) and the bit below the
// leading bit split each octave in two: index = 2o-1 + halfbit.
func bucketOf(v int64) int {
	if v < 2 {
		return 0
	}
	o := bits.Len64(uint64(v)) - 1 // floor(log2 v), >= 1
	return 2*o - 1 + int((uint64(v)>>(o-1))&1)
}

// bucketLo returns the smallest value of bucket i (inclusive).
func bucketLo(i int) int64 {
	if i <= 0 {
		return 0
	}
	o := (i + 1) / 2
	h := int64(i+1) - 2*int64(o)
	return (2 + h) << (o - 1)
}

// bucketHi returns the exclusive upper bound of bucket i. The top
// occupied bucket (124) is clamped: its true bound would overflow.
func bucketHi(i int) int64 {
	if i >= 124 {
		return math.MaxInt64
	}
	return bucketLo(i + 1)
}

// BucketBounds reports the value range of bucket i: lo inclusive, hi
// exclusive (the top bucket's hi is clamped to MaxInt64). Renderers
// outside the package use it to label histogram rows exactly as
// Quantile and the exporters interpret them.
func BucketBounds(i int) (lo, hi int64) { return bucketLo(i), bucketHi(i) }

// Counter is a monotonic counter sharing the histograms' publication
// contract: Add from any goroutine, Load without locks.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Store republishes an externally maintained count (the mirror form:
// when an authoritative counter already exists — e.g. the substrate's
// checkpoint count — telemetry mirrors it instead of double-counting).
func (c *Counter) Store(n int64) { c.v.Store(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Histogram is a fixed-size log-bucketed histogram. The zero value is
// ready to use. Record may be called from any number of goroutines
// concurrently with reads; no method allocates.
type Histogram struct {
	sum     atomic.Int64
	max     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// Record adds one observation. Negative values (possible only from a
// clock misuse upstream) clamp to zero rather than corrupting a bucket
// index.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
	for {
		m := h.max.Load()
		if v <= m {
			return
		}
		if h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// RecordN adds n observations of the same value — exactly equivalent
// to n Record(v) calls but with one sum add, one bucket add, and one
// max update. The batched facades use it to stamp a group's identical
// per-op latencies without paying per-op atomic traffic.
func (h *Histogram) RecordN(v, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.sum.Add(v * n)
	h.buckets[bucketOf(v)].Add(n)
	for {
		m := h.max.Load()
		if v <= m {
			return
		}
		if h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// AddTo accumulates the histogram's current contents into snap.
// Callers reuse one HistSnapshot across many histograms to aggregate
// (per-shard sets summing into one registry view) without allocating.
func (h *Histogram) AddTo(snap *HistSnapshot) {
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c != 0 {
			snap.Buckets[i] += c
			snap.Count += c
		}
	}
	snap.Sum += h.sum.Load()
	if m := h.max.Load(); m > snap.Max {
		snap.Max = m
	}
}

// HistSnapshot is a value-type copy of a Histogram (or a sum of
// several), safe to keep, merge, and query with no further
// synchronization. Count is derived from the buckets at read time —
// the writer never maintains it, which is what keeps Record at two
// atomic adds.
type HistSnapshot struct {
	Buckets [NumBuckets]int64
	Count   int64
	Sum     int64
	Max     int64
}

// Merge adds o's observations into s.
func (s *HistSnapshot) Merge(o *HistSnapshot) {
	for i := range o.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Mean returns the arithmetic mean, exact up to the atomicity skew of
// the snapshot (sum and buckets are read separately).
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an estimate of the q-quantile (q in [0,1]). The
// estimate is the midpoint of the bucket holding the rank-⌈q·count⌉
// observation, clamped to the recorded max, so its relative error is
// bounded by the bucket width (≤ 25%). An empty snapshot reports 0.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range s.Buckets {
		cum += s.Buckets[i]
		if cum >= rank {
			lo, hi := bucketLo(i), bucketHi(i)
			est := lo + (hi-lo)/2
			if est > s.Max {
				est = s.Max
			}
			if est < lo {
				est = lo
			}
			return est
		}
	}
	return s.Max
}

// Set is the fixed family of metrics one writer domain (a shard, or a
// whole unsharded reallocator) records into. A flat struct rather than
// a name→histogram map keeps the hot path free of lookups and hashing;
// the schema is part of the API on purpose.
//
// Latencies are nanoseconds, volumes are cells.
type Set struct {
	InsertLatency  Histogram // wall-clock Insert latency, incl. lock wait and flush work
	DeleteLatency  Histogram // wall-clock Delete latency, likewise
	FlushDuration  Histogram // active execution time per flush (chunk slices summed)
	FlushStall     Histogram // per-op time blocked advancing a flush the op did not trigger
	FlushMoved     Histogram // cells moved per completed flush
	FlushChunk     Histogram // cells moved per deamortized session chunk
	FlushCopy      Histogram // time in the flush's move loops, incl. per-move bookkeeping and observer callbacks; an overlapped plan's copies alone (real backends only)
	MigrateLatency Histogram // per-object rebalancer migration latency
	BatchSize      Histogram // ops per executed batch group (Apply)
	WALFsync       Histogram // WAL group-fsync latency (durable stores)
	Recovery       Histogram // crash-recovery duration per Recover/Open replay
	Checkpoints    Counter   // checkpointed placements (checkpointed/deamortized variants)
	BytesMoved     Counter   // payload bytes relocations moved (mirror of the arena counter)
}

// AddTo accumulates the set into an aggregate snapshot.
func (s *Set) AddTo(snap *Snapshot) {
	s.InsertLatency.AddTo(&snap.InsertLatency)
	s.DeleteLatency.AddTo(&snap.DeleteLatency)
	s.FlushDuration.AddTo(&snap.FlushDuration)
	s.FlushStall.AddTo(&snap.FlushStall)
	s.FlushMoved.AddTo(&snap.FlushMoved)
	s.FlushChunk.AddTo(&snap.FlushChunk)
	s.FlushCopy.AddTo(&snap.FlushCopy)
	s.MigrateLatency.AddTo(&snap.MigrateLatency)
	s.BatchSize.AddTo(&snap.BatchSize)
	s.WALFsync.AddTo(&snap.WALFsync)
	s.Recovery.AddTo(&snap.Recovery)
	snap.Checkpoints += s.Checkpoints.Load()
	snap.BytesMoved += s.BytesMoved.Load()
}

// Snapshot is a point-in-time aggregate view of a Registry: plain
// values, no atomics, zero heap pointers — reusing one via ReadSnapshot
// is 0 allocs/op.
type Snapshot struct {
	InsertLatency  HistSnapshot
	DeleteLatency  HistSnapshot
	FlushDuration  HistSnapshot
	FlushStall     HistSnapshot
	FlushMoved     HistSnapshot
	FlushChunk     HistSnapshot
	FlushCopy      HistSnapshot
	MigrateLatency HistSnapshot
	BatchSize      HistSnapshot
	WALFsync       HistSnapshot
	Recovery       HistSnapshot
	Checkpoints    int64
	BytesMoved     int64
	Shards         int
}

// Reset clears the snapshot for reuse (a memclr, no allocation).
func (s *Snapshot) Reset() { *s = Snapshot{} }

// Registry hands out per-shard Sets and aggregates them on read. The
// shard slice is copy-on-write behind an atomic pointer — the same
// route-table idiom as the sharded front-end — so Shard and the read
// paths never contend: growth copies, publication is one store.
type Registry struct {
	mu   sync.Mutex
	sets atomic.Pointer[[]*Set]
}

// NewRegistry returns an empty registry. Sets appear lazily as Shard
// is called; a registry wired to an unsharded Reallocator simply holds
// one set at index 0.
func NewRegistry() *Registry { return &Registry{} }

// Shard returns the Set for shard i, growing the registry if needed.
// The fast path is one atomic load; growth (rare: once per shard per
// process) copies the slice under the mutex and republishes.
func (r *Registry) Shard(i int) *Set {
	if i < 0 {
		i = 0
	}
	if p := r.sets.Load(); p != nil && i < len(*p) {
		return (*p)[i]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var cur []*Set
	if p := r.sets.Load(); p != nil {
		cur = *p
	}
	if i < len(cur) {
		return cur[i]
	}
	grown := make([]*Set, i+1)
	copy(grown, cur)
	for j := len(cur); j <= i; j++ {
		grown[j] = new(Set)
	}
	r.sets.Store(&grown)
	return grown[i]
}

// NumShards reports how many per-shard sets exist.
func (r *Registry) NumShards() int {
	if p := r.sets.Load(); p != nil {
		return len(*p)
	}
	return 0
}

// ReadSnapshot aggregates every shard's set into snap, resetting it
// first. It takes no locks and performs no allocations, so it is safe
// to call at any frequency concurrently with recording.
func (r *Registry) ReadSnapshot(snap *Snapshot) {
	snap.Reset()
	p := r.sets.Load()
	if p == nil {
		return
	}
	for _, s := range *p {
		s.AddTo(snap)
	}
	snap.Shards = len(*p)
}

// ReadShardSnapshot fills snap from shard i's set alone (Shards
// reports 1, or 0 when the shard does not exist). Like ReadSnapshot it
// is lock- and allocation-free.
func (r *Registry) ReadShardSnapshot(i int, snap *Snapshot) {
	snap.Reset()
	p := r.sets.Load()
	if p == nil || i < 0 || i >= len(*p) {
		return
	}
	(*p)[i].AddTo(snap)
	snap.Shards = 1
}

// Snapshot is the allocating convenience form for tests and tools.
func (r *Registry) Snapshot() *Snapshot {
	snap := new(Snapshot)
	r.ReadSnapshot(snap)
	return snap
}
