// Package realloc is a cost-oblivious storage reallocator: an online
// allocator that may move previously allocated blocks to keep the storage
// footprint within (1+ε) of the live volume, while guaranteeing that the
// total cost of those moves stays within O((1/ε)·log(1/ε)) of the cost of
// allocating each block once — simultaneously for every monotonically
// increasing, subadditive cost function f(w) (unit, linear, seek+bandwidth,
// sqrt, ...). The algorithm never evaluates f: it is cost oblivious.
//
// It implements Bender, Farach-Colton, Fekete, Fineman, Gilbert:
// "Cost-Oblivious Storage Reallocation", PODS 2014.
//
// # Quick start
//
//	r, _ := realloc.New(realloc.WithEpsilon(0.25))
//	r.Insert(1, 4096)            // allocate block 1, 4096 cells
//	r.Insert(2, 512)
//	ext, _ := r.Extent(2)        // current physical placement
//	r.Delete(1)                  // free; holes are reclaimed by moves
//	fmt.Println(r.Footprint())   // largest allocated address <= (1+ε)·V
//
// # Variants
//
// Three variants trade generality for stronger operational guarantees:
//
//   - Amortized (default): the Section 2 algorithm; moves may overlap
//     their own source (RAM semantics) and a single request may trigger a
//     large flush.
//   - Checkpointed: the database model of Section 3. Every move's target
//     is disjoint from its source and from all live data, space freed
//     since the last checkpoint is never rewritten, and each flush blocks
//     on only O(1/ε) checkpoints.
//   - Deamortized: additionally caps the work any single request performs
//     at O((1/ε)·w·f(1) + f(∆)).
//
// # Choosing a core
//
// The reallocation algorithm itself is pluggable: the facade drives an
// engine boundary (internal/engine) with two cores behind it, selected
// per structure with WithCore on either constructor, or globally with
// the REALLOC_CORE environment variable ("pods14" or "fcs") when no
// explicit WithCore is given. A structure's core is fixed when it is
// built, and Core reports it; unknown names fail construction.
//
//   - CorePODS14 (default) is the reference implementation described
//     above: every variant, footprint ≤ (1+ε)·V after every request,
//     and reallocation cost O((1/ε)·log(1/ε))-competitive for every
//     subadditive cost function.
//   - CoreFCS is a slot-class core with the folklore bound, motivated
//     by Farach-Colton and Sheffield (arXiv 2405.12152) but not their
//     Õ(ε^{-1/2}) algorithm: objects are rounded up into geometric slot
//     classes (factor g = 1+ε/4), each class's occupied slots form a
//     packed prefix, a delete backfills its hole by swapping in the
//     class's last occupant (one move of ≤ g·w volume), and a full
//     repack runs only when the allocation frontier exceeds (1+ε)·V.
//     The amortized moved volume is the folklore O(w/ε) per request —
//     no log(1/ε) factor — but the bound is per-volume rather than
//     cost-oblivious, and the core runs Amortized only: selecting
//     Checkpointed or Deamortized with it fails construction.
//
// Whatever the core, the externally observable allocation semantics are
// identical — the live id set, sizes, extents, and aggregate state; an
// N-way differential oracle and a cross-core fuzz target
// (internal/engine) pin this, and experiment E16 sweeps both cores'
// cost against ε on uniform, zipf, and adversarial workloads.
//
// # Backends
//
// By default the cells of the address space are metered, not
// materialized: every move is counted at exactly the cost a real
// backend would pay (one cell = one byte), but no bytes exist and no
// copies run. WithBackend swaps in a real payload backend, below the
// placement policy, on either facade:
//
//   - Metered (default): moved volume is counted, nothing is copied.
//   - HeapArena: payload lives in a growable Go byte slice; every
//     scheduled relocation physically memmoves the object's extent.
//   - MmapArena: payload lives in an anonymous private memory mapping
//     (heap fallback on platforms without mmap).
//
// With a real backend, the payload written before any number of
// relocations reads back intact after all of them:
//
//	r, _ := realloc.New(realloc.WithBackend(realloc.HeapArena))
//	r.Insert(1, 10)
//	r.Write(1, []byte("hello, 10b"))
//	buf, _ := r.Bytes(1)   // intact across any number of relocations
//
// The backend never changes a placement decision: on identical input,
// Metered and HeapArena produce identical event streams and extents (a
// differential test pins this), and their BytesMoved counters agree
// exactly with the trace's moved volume — the paper's cost unit — which
// is what makes the metered counters the real cost rather than an
// estimate. Experiment E17 validates the three-way match and prices the
// unit in wall-clock bytes/ns.
//
// With a real backend armed, Write, Read, and Bytes access an object's
// payload; Backend reports the selection and BytesMoved the bytes
// physically moved so far. On the sharded facade each shard owns a
// private arena: Write takes the owning shard's write lock, Read its
// read lock (reads of one shard proceed together), and Bytes returns a
// copy — a concurrent insert may relocate the object the moment the
// shard lock drops. Cross-shard migrations carry payload with the
// object; BytesMoved counts relocations within an address space, and a
// migration is a delete plus an insert, not a relocation. BlockStore
// (BlockStoreBackend) builds checksummed crash-consistent durability on
// the same surface: Put records a crc64 checksum and Recover re-verifies
// every durable block's bytes at its checkpointed extent.
//
// BlockStoreDir takes that contract to real media: the store keeps a
// file-backed payload arena, whose checkpoint sync writes back only the
// pages written since the previous one (reads write nothing back), plus
// a crc64-framed write-ahead log of every placement, and
// OpenBlockStore recovers a directory by replaying the log to the last
// durable checkpoint — truncating any torn tail — and verifying each
// surviving block's checksum against the arena image. A checkpoint
// appends its record, then syncs the log and the arena in parallel.
// Since the log already is the durable translation map, a durable
// checkpoint costs one round of those two syncs plus O(1) bookkeeping,
// and replay is O(records); only in-memory stores keep a shadow map and
// per-cell owner stamps, because their Recover reads them:
//
//	s, _ := realloc.NewBlockStore(realloc.BlockStoreDir(dir))
//	s.Put("root", pageBytes)
//	s.Checkpoint()                      // WAL record, then WAL and arena syncs in parallel
//	s.Close()
//
//	s, rep, _ := realloc.OpenBlockStore(realloc.BlockStoreDir(dir))
//	data, _ := s.Get("root")            // verified against the arena image
//	_ = rep.Recovered                   // blocks reloaded from the checkpoint
//
// The checkpoint rule is exactly what makes this sound: space freed
// since the last checkpoint is never rewritten before the next one
// completes, so the extents a durable checkpoint references stay
// byte-identical in the arena image until a newer checkpoint is itself
// durable. A crash that lands the last checkpoint's record but not all
// of its arena pages fails that checkpoint's checksums, and recovery
// falls back to the one before it (rep.FellBack), never further. A
// crashmonkey-style harness (internal/btl) kills the store at every
// enumerated media write and fsync — plus randomized multi-fault
// schedules: torn writes, dropped fsyncs, transient EIO — and proves
// recovery lands on a durable checkpoint every time.
//
// # Concurrency and sharding
//
// A Reallocator is not safe for concurrent use unless built WithLocking,
// which serializes every method behind one mutex — honest, but a
// bottleneck under parallel load. NewSharded scales past it by hash
// partitioning object ids across N independent reallocators, each with
// its own mutex and its own private address space:
//
//	s, _ := realloc.NewSharded(realloc.WithShards(8), realloc.WithEpsilon(0.25))
//	s.Insert(1, 4096)            // locks only shard ShardOf(1)
//	ext, _ := s.Extent(1)        // address within that shard's space
//
// The paper's guarantees are per-allocator, so they partition cleanly:
// shard i keeps its footprint within (1+ε)·V_i of its own live volume,
// hence the summed footprint stays within (1+ε) of the total live volume
// (per-shard additive terms now occur once per shard), and each shard's
// reallocation cost remains O((1/ε)·log(1/ε))-competitive for every
// subadditive cost function — a bound closed under summation. The trade
// is that there is no single contiguous address space: a placement is
// identified by (shard, address), and observer Events carry their Shard
// index so a translation layer can key physical locations accordingly.
//
// # Parallel scaling
//
// The sharded front-end is built so an uncontended operation touches no
// shared mutable cache line except its own shard's:
//
//   - Routing is lock-free. The id→shard table is an immutable
//     copy-on-write structure published through an atomic pointer;
//     resolving a route is one pointer load (plus a map lookup only
//     while rebalancer-migrated ids exist), and the owning-shard
//     re-check after locking compares table pointers instead of taking
//     a router lock. Migrations publish route changes only while
//     holding both affected shard locks, so every operation still sees
//     exactly one owner per id.
//   - Per-object reads do not serialize. Extent and Has take only the
//     owning shard's read lock: concurrent readers of one shard
//     proceed together, and readers of different shards share nothing.
//     Insert and Delete take the owning shard's write lock.
//   - Aggregate reads take no shard locks. Each shard maintains a
//     cache-line-padded block of lock-free mirrors (volume, footprint,
//     len, flushes, ∆, flush activity), updated under its lock after
//     every mutation and read via atomics; a per-shard seqlock keeps
//     Snapshot's (len, volume, footprint) triples internally
//     consistent. Len, Volume, Footprint, Flushes, Delta, FlushActive,
//     ShardVolume(s), ShardFootprint, and Snapshot read only these
//     mirrors. The semantics are unchanged from the locked
//     implementation: each per-shard term is a consistent
//     post-operation value, but shards are visited one at a time, so
//     under concurrent mutation the result is a per-shard-consistent,
//     not globally atomic, snapshot.
//
// Monitoring loops should prefer the allocation-free forms
// AppendShardVolumes, ReadSnapshot, and ReadStats over their allocating
// counterparts. BenchmarkShardedParallel (run with -cpu 1,2,4,8) and
// experiment E15 measure the cores→throughput curves; CI enforces the
// mixed-workload scaling gate (cmd/benchgate -lane scaling) and
// uploads each run's curve as a BENCH_ci_scaling.json artifact. No
// record is committed: a curve means something only from a machine
// with as many hardware threads as the sweep's largest -cpu value.
//
// A WithObserver callback on a sharded reallocator runs while the
// emitting shard's write lock is held (both shard locks for migration
// events): it must not call back into anything that takes a shard lock
// — the per-object methods (Insert, Delete, Extent, Has) and the
// metrics readers (Stats, ReadStats, ShardStats, which read each
// shard's recorder under its read lock) can all deadlock on the
// emitting shard. The mirror-only aggregate reads above (Volume,
// Footprint, Len, Flushes, Delta, FlushActive, ShardVolume(s),
// ShardFootprint, AppendShardVolumes, Snapshot/ReadSnapshot, ShardOf)
// take no locks and are safe to call from the callback; they observe
// the state as of the last completed operation.
//
// # Batching
//
// Every per-op call repeats the same front-end work: route the id,
// take the shard lock, republish the read mirrors, stamp telemetry.
// The batched surface — Apply on both facades, with InsertBatch and
// DeleteBatch as wrappers — pays that once per group:
//
//	errs := s.Apply(realloc.Batch{
//	    realloc.InsertOp(1, 4096),
//	    realloc.DeleteOp(9),
//	})
//
// A batch is a sequence, not a transaction: ops run in submission
// order, op i's failure never prevents op j from running, and the
// returned slice is nil on full success or has one slot per op at its
// submission index. Final state, per-op errors, and observer event
// order are exactly those of the equivalent loop of Insert and Delete
// calls (the steady-state batched path allocates nothing). The sharded
// Apply routes the whole batch against one route-table snapshot,
// groups ops by owning shard, locks each touched shard exactly once in
// ascending order (re-validating ownership under the lock, falling
// back to the per-op path for ops a concurrent migration rerouted),
// and merges errors back in submission order; same-id ops route
// identically, so their relative order is preserved. Batched deletes
// of rebalancer-migrated ids clear their route-table overrides in one
// copy-on-write republish per shard group. The amortization is priced
// by BenchmarkBatchChurn and gated in CI (cmd/benchgate -lane batch,
// BENCH_ci_batch.json): 64-op batches must run front-end-bound churn
// at ≥2x the per-op lane's throughput. With telemetry armed, group
// sizes land in the BatchSize histogram, and batched ops stamp their
// insert/delete latencies from batch-submission time.
//
// # Rebalancing
//
// Hash partitioning is static, so a skewed id population can pile most
// of the live volume onto one shard. WithRebalance replaces the fixed
// mapping with a routed id→shard table and arms a rebalancer that
// watches per-shard live volume and, once max/mean exceeds the policy
// threshold, migrates bounded batches of objects from overloaded to
// underloaded shards, rerouting their ids:
//
//	s, _ := realloc.NewSharded(realloc.WithShards(8),
//	    realloc.WithRebalance(realloc.RebalancePolicy{Mode: realloc.RebalanceInline}))
//	defer s.Close()
//
// Why the bounds survive migration: every guarantee in the paper is
// stated for a single allocator against an arbitrary request stream.
// A migration is exactly one 〈DeleteObject〉 on the source shard and one
// 〈InsertObject〉 on the target shard, so each side is still just serving
// its own stream — the source's next flush reclaims the vacated space,
// keeping footprint_i ≤ (1+ε)·V_i, and the target's insert is a normal
// allocation covered by its own cost bound. Summing over shards, the
// global footprint stays within (1+ε) of the total live volume (plus
// the per-shard additive terms) and the reallocation cost stays
// O((1/ε)·log(1/ε))-competitive for every subadditive f, before, during,
// and after any sequence of migrations. What changes is only *which*
// shard pays, which is the point: volume moves off the overloaded lock.
// Observers see each migration as an EventDelete on the source, an
// EventInsert on the target, then an EventMigrate carrying both shard
// indices.
//
// # Observability
//
// WithTelemetry arms a runtime telemetry layer on either facade,
// recording into a caller-owned registry (internal/telemetry):
//
//	reg := telemetry.NewRegistry()
//	s, _ := realloc.NewSharded(realloc.WithShards(8), realloc.WithTelemetry(reg))
//	http.ListenAndServe(":6060", telemetry.NewServeMux(reg))
//
// The registry holds one metric set per shard: log-bucketed histograms
// (two buckets per octave, so any quantile is exact to within ~25%
// relative error) of insert/delete latency, per-flush active duration,
// moved volume and move-loop time (FlushCopy, real backends only),
// per-chunk size, per-stalled-op flush stall, and cross-shard migration
// latency, plus a checkpoint counter. Recording is lock-free and
// allocation-free — one atomic add into the owning shard's bucket plus
// a sum update — and snapshot reads take no locks and 0 allocs/op via
// ReadSnapshot/ReadShardSnapshot, so a monitoring loop never perturbs
// the structure it watches. No clock is read per payload copy: on a
// real backend the substrate times each chunk of flush moves with one
// clock pair, armed or not, and FlushCopy reports those times per
// flush. Measured whole-facade churn overhead with telemetry armed
// (BenchmarkChurnTelemetry, 2-vCPU VM, minimum of 6 runs at -benchtime
// 30000x) is within run-to-run noise on both backends: on/off 0.92–1.06x
// on Metered and 0.90–0.94x on HeapArena, with single runs spread over
// 0.76–1.40x; a clock pair around every copy measured 2.0–2.6x on the
// heap lanes. CI gates every lane at 10% (cmd/benchgate -lane
// overhead).
//
// The registry is served three ways: telemetry.Handler renders
// Prometheus text (per-shard histograms, labeled shard="i"),
// telemetry.Var plugs into expvar, and telemetry.NewServeMux bundles
// /metrics, /debug/vars, and /debug/pprof into one stdlib mux.
//
// With telemetry armed, Stats additionally reports LatencyP99 and
// FlushP99 (zero, not an error, when telemetry is off), and observers
// receive an EventFlushSpan after each EventFlushEnd replaying the
// completed flush as a timing span: chunk count, moved volume, stall
// and active nanoseconds. cmd/reallocbench -telemetry embeds percentile
// summaries in BENCH_<id>.json and serves the live registry with -http;
// cmd/reallocviz telemetry renders the histograms and span stream as
// ASCII after a churn run.
//
// # Performance
//
// Every flush schedule, FCS rebuilds included, runs through one
// substrate move session. Atomic flushes — the hot path that relocates
// nearly every object of a suffix of the structure — run as one
// whole-plan chunk: the schedule names each object by its rank in the
// flushed suffix of the
// address-ordered index (a two-level blocked structure), whose entries
// carry a tag naming the engine's record, so planning and validation
// resolve objects by position and never hash an id; the plan is applied
// through dense per-rank scratch and the index rebuilds only that suffix
// in a single merge pass. Planning runs over a dense array filled by one
// walk of that suffix, which reads each object's record once, and an
// amortized flush sweeps each payload object straight to its slot, so
// it moves at most once (buffered objects move out to the overflow
// segment and back). The schedule supplies its final order, so the
// bookkeeping is O(n + m) for a flush of m objects instead of the O(m·n)
// a per-move sorted-index update pays. Ids resolve through one
// open-addressing table per engine that holds each object's extent and
// record tag inline; every index entry records its object's table slot,
// so a batch commit writes each moved extent by slot without hashing,
// and a rebuild (once entries and tombstones pass 3/4 of the slots)
// rewrites those slots. A deamortized flush spreads one schedule
// across many requests as quota-bounded chunks of the same session,
// which validates the plan once and reconciles the index incrementally
// per chunk — a chunk of k moves pays
// O(k + B + log n) index work with no observer attached, and
// O(k·(log n + B)) when per-move footprints must be reported to one —
// in either case independent of how large the structure is. The
// freed-since-checkpoint interval set is blocked the same way, bounding
// the per-free cost under delete-heavy Durable churn. Steady-state
// requests and flushes are allocation-free: object records, regions, move
// plans, and executor scratch are pooled.
//
// Per-operation cost for n live objects and a flush suffix of m objects
// (B is the constant index block size): a buffered insert or delete is
// O(log n + B); a flush is O(n + m) bookkeeping amortized over the
// Θ(ε·V) volume of requests that filled the buffers; a deamortized
// request advances an active flush by a volume-bounded chunk at
// O(k + B + log n) for its k moves (O(k·(log n + B)) with an observer).
// Steady churn runs at 0 allocs/op from 10^4 to 10^6 live cells (see
// BenchmarkChurnScaling and the README table). CI gates the 1e5→1e6
// per-op ratio (cmd/benchgate -lane churn) and persists a
// BENCH_ci_churn.json trajectory record per run.
//
// Observable behavior is unchanged: observers receive the identical
// per-move event sequence — footprints, checkpoints, counters — that
// per-move execution produces. The core's differential test
// (TestBatchedSerialEquivalence in internal/core) drives every variant
// through both the move session and the per-move reference path and
// asserts equality of event streams, layouts, footprint series, and
// stats.
//
// The package also exposes the paper's corollaries: a crash-consistent
// database block store built on a translation layer (BlockStore), a
// defragmenter that sorts objects in (1+ε)V+∆ space (SortVolume), and a
// dynamic uniprocessor schedule planner (Scheduler).
package realloc
