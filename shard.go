package realloc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"realloc/internal/addrspace"
	"realloc/internal/cost"
	"realloc/internal/engine"
	"realloc/internal/rebalance"
	"realloc/internal/shardhash"
	"realloc/internal/telemetry"
	"realloc/internal/trace"
)

// ShardedReallocator scales the cost-oblivious reallocator across
// goroutines by partitioning object ids over n independent cores, each
// guarded by its own lock and owning a private address space.
//
// The paper's guarantees are per-allocator, so they survive partitioning
// shard by shard: shard i keeps its footprint within (1+ε)·V_i of its own
// live volume V_i, and therefore the summed footprint stays within (1+ε)
// of the total live volume (plus the per-shard additive terms, which now
// occur once per shard rather than once). The cost bound is likewise
// preserved: each shard's reallocation cost is O((1/ε)·log(1/ε)) times
// its own allocation cost for every subadditive cost function, and the
// bound is closed under summation. What sharding gives up is a single
// contiguous address space: an extent's address is relative to its
// shard's space, so callers mapping placements to physical storage must
// key by (shard, address) — every observer Event carries its Shard index
// for exactly this purpose.
//
// Ids are routed through a stable id→shard table: an id's default home is
// a hash of the id, and the rebalancer (see WithRebalance) may reassign
// individual ids to level live volume across shards. The table is an
// immutable snapshot published through an atomic pointer, so routing an
// uncontended operation is one or two plain loads — no lock, no shared
// mutable cache line. Route changes are only published while both
// affected shard locks are held, so every operation still sees exactly
// one owner per id.
//
// Operations on a single object run in parallel across shards: Insert
// and Delete take only the owning shard's write lock, and Extent and Has
// take only its read lock, so readers of one shard never block each
// other. Aggregate reads (Len, Volume, Footprint, Flushes, Delta,
// FlushActive, ShardVolume(s), ShardFootprint, Snapshot) take no shard
// locks at all: each shard maintains a block of lock-free mirrors of its
// own counters, updated under its lock after every mutation and read via
// atomics. Each per-shard term is therefore a consistent post-operation
// value, but shards already visited may mutate before the loop finishes,
// so under concurrent mutation the result is a per-shard-consistent, not
// globally-atomic, snapshot — the same semantics the locked
// implementation had. Use Snapshot to get the per-shard terms and their
// exact sums in one call.
type ShardedReallocator struct {
	shards  []*shard
	epsilon float64
	core    Core // fixed at construction
	router  *router
	// observer is the user callback events are delivered to; migration
	// events are emitted here directly (per-shard events go through each
	// shard's recorder chain).
	observer func(Event)

	// Rebalancing state; pol is always valid (defaults), auto/inline say
	// whether a trigger is armed.
	pol     rebalance.Policy
	auto    bool
	inline  bool
	opCount atomic.Int64

	migrations     atomic.Int64
	migratedVolume atomic.Int64

	// telReg is the registry WithTelemetry armed (nil otherwise); each
	// shard records into its own Set, and stats reads aggregate them.
	telReg *telemetry.Registry

	// volScratch recycles the per-shard volume vectors the lock-free skew
	// checks read, so inline triggers allocate nothing on the hot path;
	// costScratch recycles ReadStats' per-function cost accumulator, and
	// telScratch its telemetry snapshot.
	volScratch  sync.Pool
	costScratch sync.Pool
	lineScratch sync.Pool
	telScratch  sync.Pool
	// applyPool recycles the batched path's grouping scratch, so
	// steady-state Apply calls allocate nothing.
	applyPool sync.Pool

	// rebalanceMu serializes sweeps; errMu guards the sticky background
	// error returned by Close.
	rebalanceMu sync.Mutex
	errMu       sync.Mutex
	rebalErr    error

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// shard pairs one sequential core with its own lock, recorders, and a
// block of lock-free read mirrors. The layout is cache-line-padded: the
// lock word (bounced between writers) and the mirror block (polled by
// lock-free readers) never share a line, so an uncontended operation
// touches no cache line that another shard's traffic also writes.
type shard struct {
	// mu serializes mutations. Extent/Has take only the read side, so
	// within a shard readers never block readers; migrations take the
	// write side of both affected shards.
	mu      sync.RWMutex
	inner   engine.Engine
	metrics *trace.Metrics
	// tel is this shard's telemetry set (nil without WithTelemetry).
	// Recording is two atomic adds; the set itself is lock-free, so the
	// aggregating readers never touch this shard's lock.
	tel *telemetry.Set

	_ [64]byte // keep the lock word off the mirror block's cache line

	// Lock-free mirrors of the core's counters, written by publish (under
	// mu) and read via atomics. seq is a seqlock over the block: publish
	// bumps it odd before the stores and even after, and multi-field
	// readers (Snapshot) retry until they straddle no publish. Single-
	// counter readers (Volume, Footprint, ...) load their field directly —
	// any published value is a valid post-operation value.
	seq     atomic.Uint64
	vol     atomic.Int64
	foot    atomic.Int64
	objects atomic.Int64
	flushes atomic.Int64
	delta   atomic.Int64
	active  atomic.Bool

	_ [64]byte // pad the tail against a neighboring allocation's traffic
}

// publish refreshes the lock-free mirrors from the core. It must be
// called with sh.mu write-held after every successful mutation; mu
// serializes publishers, so the seqlock has one writer at a time.
// Atomic stores are read-modify-write-priced on most hardware, so each
// mirror is re-stored only when its value actually moved — volume and
// len change on every operation, but footprint, flushes, delta, and the
// flush-active bit only move when a flush runs, which keeps the steady
// per-op publish cost at the seqlock bump plus two stores.
func (sh *shard) publish() {
	sh.seq.Add(1) // odd: a multi-field read straddling this retries
	sh.vol.Store(sh.inner.Volume())
	sh.objects.Store(int64(sh.inner.Len()))
	if v := sh.inner.Footprint(); v != sh.foot.Load() {
		sh.foot.Store(v)
	}
	if v := sh.inner.Flushes(); v != sh.flushes.Load() {
		sh.flushes.Store(v)
	}
	if v := sh.inner.Delta(); v != sh.delta.Load() {
		sh.delta.Store(v)
	}
	if v := sh.inner.FlushActive(); v != sh.active.Load() {
		sh.active.Store(v)
	}
	sh.seq.Add(1) // even: stable
}

// readSnapshot returns one internally consistent (len, volume,
// footprint) triple from the mirror block, retrying while a publish is
// in flight. The spin is bounded only by publish's six stores; Gosched
// covers the pathological case of a publisher preempted mid-block.
func (sh *shard) readSnapshot() ShardSnapshot {
	for spin := 0; ; spin++ {
		s1 := sh.seq.Load()
		if s1&1 == 0 {
			ss := ShardSnapshot{
				Len:       int(sh.objects.Load()),
				Volume:    sh.vol.Load(),
				Footprint: sh.foot.Load(),
			}
			if sh.seq.Load() == s1 {
				return ss
			}
		}
		if spin > 64 {
			runtime.Gosched()
		}
	}
}

// routeTable is the immutable id→shard override table the router
// publishes through an atomic pointer. A nil overrides map is the common
// "no overrides live" state: route() then decides on the pointer load
// and a nil check alone before falling through to the stable hash home.
// Published tables are never mutated — writers clone, edit the clone,
// and publish the result.
type routeTable struct {
	overrides map[int64]int
}

// router is the id→shard table: the default route is the stable hash
// home, overridden per id once the rebalancer migrates it. Reads are
// lock-free — route() performs no mutex operations, only the table-
// pointer load (plus a map lookup when overrides are live). Writers
// copy-on-write under writeMu and publish with one pointer store; route
// changes for a live id additionally happen only while both affected
// shard locks are held (see migrateLocked), which is what acquire's
// under-lock re-check relies on. Overrides are dropped when the object
// is deleted or migrated back home, so the table stays proportional to
// the number of displaced live objects.
type router struct {
	n       int
	table   atomic.Pointer[routeTable]
	writeMu sync.Mutex
	// publishes counts table publications; white-box tests pin the
	// one-republish-per-batch contract of the batched paths on it.
	publishes atomic.Int64
}

func newRouter(n int) *router {
	rt := &router{n: n}
	rt.table.Store(&routeTable{})
	return rt
}

// routeIn resolves id under a specific published table, letting callers
// pin one snapshot across a lookup-lock-recheck sequence.
func (rt *router) routeIn(t *routeTable, id int64) int {
	if t.overrides != nil {
		if s, ok := t.overrides[id]; ok {
			return s
		}
	}
	return shardhash.Home(id, rt.n)
}

func (rt *router) route(id int64) int {
	return rt.routeIn(rt.table.Load(), id)
}

// update clones the current table, applies edit to the clone, and
// publishes it — one clone and one pointer store no matter how many ids
// the edit touches, which is what keeps a whole migration batch at one
// republish. edit reports whether it changed anything; an unchanged
// clone is not published.
func (rt *router) update(edit func(m map[int64]int) bool) {
	rt.writeMu.Lock()
	defer rt.writeMu.Unlock()
	old := rt.table.Load()
	next := make(map[int64]int, len(old.overrides)+1)
	for id, s := range old.overrides {
		next[id] = s
	}
	if !edit(next) {
		return
	}
	t := &routeTable{}
	if len(next) > 0 {
		t.overrides = next
	}
	rt.table.Store(t)
	rt.publishes.Add(1)
}

// setAll records that every id in ids now lives on shard, in one
// copy-on-write publish for the whole batch. Routing an id back to its
// hash home removes its override instead of storing a redundant entry.
func (rt *router) setAll(ids []int64, shard int) {
	if len(ids) == 0 {
		return
	}
	rt.update(func(m map[int64]int) bool {
		for _, id := range ids {
			if shardhash.Home(id, rt.n) == shard {
				delete(m, id)
			} else {
				m[id] = shard
			}
		}
		return true
	})
}

// clear drops id's override. The common no-override case decides on the
// published table alone and skips the copy-on-write entirely — callers
// hold id's owning shard lock, which excludes the only writers (migrate)
// that could be adding an override for this id concurrently. Deleting a
// displaced id does pay a full table clone (the COW trade: reads are
// free, writes copy), so deleting all k displaced ids costs O(k²) map
// entries total; k is bounded by what the rebalancer has displaced, and
// the clone shrinks as overrides drain. If a workload ever deletes huge
// displaced populations, batch the tombstones into one update() — but
// only for ids that are not concurrently re-inserted, since a stale
// override must never outlive a live object it misroutes.
func (rt *router) clear(id int64) {
	t := rt.table.Load()
	if t.overrides == nil {
		return
	}
	if _, ok := t.overrides[id]; !ok {
		return
	}
	rt.update(func(m map[int64]int) bool {
		if _, ok := m[id]; !ok {
			return false
		}
		delete(m, id)
		return true
	})
}

func (rt *router) overrideCount() int {
	return len(rt.table.Load().overrides)
}

// NewSharded creates a ShardedReallocator. It accepts the same options as
// New — WithShards picks the shard count (default runtime.GOMAXPROCS),
// WithRebalance arms dynamic cross-shard rebalancing, WithLocking is
// implied, and a WithObserver callback must be safe for concurrent use
// because shards emit events in parallel. The callback runs while the
// emitting shard's write lock is held (both shard locks, for migration
// events): it must not call back into anything that takes a shard lock
// — the per-object methods (Insert, Delete, Extent, Has) and the
// metrics readers (Stats, ReadStats, ShardStats), which read each
// shard's recorder under its read lock, can all deadlock on the
// emitting shard. The mirror-only aggregate reads — Volume, Footprint,
// Len, Flushes, Delta, FlushActive, ShardVolume(s), ShardFootprint,
// AppendShardVolumes, Snapshot/ReadSnapshot, and ShardOf — take no
// locks and are safe to call from the callback; they observe the state
// as of the last completed operation.
//
// Call Close when done if the reallocator was built with a background
// rebalancing policy; it is a no-op otherwise.
func NewSharded(opts ...Option) (*ShardedReallocator, error) {
	cfg := config{epsilon: 0.25}
	for _, o := range opts {
		o(&cfg)
	}
	if err := validateEpsilon(cfg.epsilon); err != nil {
		return nil, err
	}
	n := cfg.shards
	if !cfg.shardsSet {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return nil, fmt.Errorf("realloc: shard count must be >= 1, got %d", n)
	}
	ec, err := cfg.resolveCore()
	if err != nil {
		return nil, err
	}
	s := &ShardedReallocator{
		shards:   make([]*shard, n),
		epsilon:  cfg.epsilon,
		core:     Core(ec),
		router:   newRouter(n),
		observer: cfg.observer,
		pol:      rebalance.Policy{}.WithDefaults(),
		telReg:   cfg.tel,
	}
	s.volScratch.New = func() any {
		b := make([]int64, 0, n)
		return &b
	}
	s.costScratch.New = func() any { return map[string]float64{} }
	s.lineScratch.New = func() any {
		b := make([]cost.Line, 0, 8)
		return &b
	}
	s.telScratch.New = func() any { return new(telemetry.Snapshot) }
	s.applyPool.New = func() any { return new(shardedApplyScratch) }
	for i := range s.shards {
		rec, m := newRecorder(&cfg, i)
		var set *telemetry.Set
		if cfg.tel != nil {
			set = cfg.tel.Shard(i)
		}
		inner, err := cfg.buildEngine(ec, rec, set)
		if err != nil {
			return nil, err
		}
		s.shards[i] = &shard{inner: inner, metrics: m, tel: set}
	}
	if cfg.rebalance != nil {
		pol := toInternalPolicy(*cfg.rebalance).WithDefaults()
		if err := pol.Validate(); err != nil {
			return nil, fmt.Errorf("realloc: %w", err)
		}
		s.pol = pol
		s.auto = true
		s.inline = pol.Mode == rebalance.Inline
		if pol.Mode == rebalance.Background {
			s.stop = make(chan struct{})
			s.done = make(chan struct{})
			go s.backgroundLoop()
		}
	}
	return s, nil
}

// ShardOf returns the index of the shard that currently owns id: the
// stable hash home, unless the rebalancer has reassigned the id. Without
// WithRebalance the mapping never changes. The lookup is lock-free.
func (s *ShardedReallocator) ShardOf(id int64) int {
	return s.router.route(id)
}

// Shards returns the shard count.
func (s *ShardedReallocator) Shards() int { return len(s.shards) }

// acquire write-locks and returns the shard that owns id. A concurrent
// migration may reroute the id between the route lookup and the lock
// acquisition, so the route is re-validated under the lock — but against
// the published table pointer, not a second router lock: if no new table
// was published since the pre-lock read, the route cannot have changed;
// if one was, the current table is re-read, and it is authoritative
// because any migration that reroutes this id must hold the lock we now
// hold (an id only migrates off the shard it lives on).
func (s *ShardedReallocator) acquire(id int64) (*shard, int) {
	for {
		t := s.router.table.Load()
		i := s.router.routeIn(t, id)
		sh := s.shards[i]
		sh.mu.Lock()
		if cur := s.router.table.Load(); cur == t || s.router.routeIn(cur, id) == i {
			return sh, i
		}
		sh.mu.Unlock()
	}
}

// acquireRead is acquire for the read-locked fast path: same routing and
// generation re-check, but takes only the shard's read lock, so
// concurrent readers of one shard proceed together. The re-check remains
// authoritative — a migration publishing a reroute of this id needs the
// write side of the lock we hold read-locked.
func (s *ShardedReallocator) acquireRead(id int64) *shard {
	for {
		t := s.router.table.Load()
		i := s.router.routeIn(t, id)
		sh := s.shards[i]
		sh.mu.RLock()
		if cur := s.router.table.Load(); cur == t || s.router.routeIn(cur, id) == i {
			return sh
		}
		sh.mu.RUnlock()
	}
}

// Insert services 〈InsertObject, id, size〉 on the owning shard.
func (s *ShardedReallocator) Insert(id int64, size int64) error {
	if err := validateSize(size); err != nil {
		return err
	}
	// Op latency is stamped before the lock: the caller's wall-clock
	// includes lock wait, which is exactly the contention a per-shard
	// latency histogram exists to expose.
	var start int64
	if s.telReg != nil {
		start = telemetry.Now()
	}
	sh, _ := s.acquire(id)
	err := sh.inner.Insert(addrspace.ID(id), size)
	if err == nil {
		sh.publish()
	}
	if sh.tel != nil {
		sh.tel.InsertLatency.Record(telemetry.Now() - start)
	}
	sh.mu.Unlock()
	if err == nil && s.inline {
		s.maybeStealRebalance()
	}
	return err
}

// Delete services 〈DeleteObject, id〉 on the owning shard.
func (s *ShardedReallocator) Delete(id int64) error {
	var start int64
	if s.telReg != nil {
		start = telemetry.Now()
	}
	sh, _ := s.acquire(id)
	err := sh.inner.Delete(addrspace.ID(id))
	if err == nil {
		sh.publish()
		// The id is gone; future inserts of the same id hash fresh.
		s.router.clear(id)
	}
	if sh.tel != nil {
		sh.tel.DeleteLatency.Record(telemetry.Now() - start)
	}
	sh.mu.Unlock()
	if err == nil && s.inline {
		s.maybeStealRebalance()
	}
	return err
}

// Extent returns the object's current placement within its shard's
// private address space; combine with ShardOf(id) for a globally unique
// physical location. Only the owning shard's read lock is taken, so
// concurrent Extent/Has calls on one shard never serialize.
func (s *ShardedReallocator) Extent(id int64) (Extent, bool) {
	sh := s.acquireRead(id)
	defer sh.mu.RUnlock()
	e, ok := sh.inner.Extent(addrspace.ID(id))
	return Extent{Start: e.Start, Size: e.Size}, ok
}

// Has reports whether the object is live. Like Extent, it takes only the
// owning shard's read lock.
func (s *ShardedReallocator) Has(id int64) bool {
	sh := s.acquireRead(id)
	defer sh.mu.RUnlock()
	return sh.inner.Has(addrspace.ID(id))
}

// Len returns the number of live objects across all shards, lock-free
// from the per-shard mirrors.
func (s *ShardedReallocator) Len() int {
	n := int64(0)
	for _, sh := range s.shards {
		n += sh.objects.Load()
	}
	return int(n)
}

// Volume returns the total live volume V summed over shards, lock-free
// from the per-shard mirrors.
func (s *ShardedReallocator) Volume() int64 {
	var v int64
	for _, sh := range s.shards {
		v += sh.vol.Load()
	}
	return v
}

// Footprint returns the summed per-shard footprint: each shard keeps its
// own footprint within (1+ε)·V_shard, so the sum stays within (1+ε) of
// the total live volume. Lock-free from the per-shard mirrors.
func (s *ShardedReallocator) Footprint() int64 {
	var f int64
	for _, sh := range s.shards {
		f += sh.foot.Load()
	}
	return f
}

// ShardFootprint returns shard i's own footprint (lock-free).
func (s *ShardedReallocator) ShardFootprint(i int) int64 {
	return s.shards[i].foot.Load()
}

// ShardVolume returns shard i's live volume (lock-free).
func (s *ShardedReallocator) ShardVolume(i int) int64 {
	return s.shards[i].vol.Load()
}

// ShardVolumes returns every shard's live volume in one lock-free pass —
// the vector the rebalancer's skew detector runs on. It allocates the
// result; monitoring loops that poll it should use AppendShardVolumes.
func (s *ShardedReallocator) ShardVolumes() []int64 {
	return s.AppendShardVolumes(make([]int64, 0, len(s.shards)))
}

// AppendShardVolumes appends every shard's live volume to dst and
// returns the extended slice, allocating nothing when dst has capacity —
// the allocation-free form of ShardVolumes for monitoring loops.
func (s *ShardedReallocator) AppendShardVolumes(dst []int64) []int64 {
	for _, sh := range s.shards {
		dst = append(dst, sh.vol.Load())
	}
	return dst
}

// Delta returns the largest object size seen by any shard (the paper's
// ∆; per-shard additive terms use each shard's own ∆, which is at most
// this). Lock-free from the per-shard mirrors.
func (s *ShardedReallocator) Delta() int64 {
	var d int64
	for _, sh := range s.shards {
		if sd := sh.delta.Load(); sd > d {
			d = sd
		}
	}
	return d
}

// Epsilon returns the configured footprint slack (shared by all shards).
func (s *ShardedReallocator) Epsilon() float64 { return s.epsilon }

// Core reports the core every shard runs, fixed at construction.
func (s *ShardedReallocator) Core() Core { return s.core }

// Flushes returns the total buffer flushes summed over shards, lock-free
// from the per-shard mirrors.
func (s *ShardedReallocator) Flushes() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.flushes.Load()
	}
	return n
}

// FlushActive reports whether any shard had a deamortized flush
// mid-execution as of its last completed operation (lock-free).
func (s *ShardedReallocator) FlushActive() bool {
	for _, sh := range s.shards {
		if sh.active.Load() {
			return true
		}
	}
	return false
}

// Drain completes any in-progress deamortized flush on every shard.
func (s *ShardedReallocator) Drain() error {
	for i, sh := range s.shards {
		sh.mu.Lock()
		err := sh.inner.Drain()
		sh.publish()
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// ForEach visits live objects shard by shard in shard-index order, in
// address order within each shard. Each shard's read lock is held while
// its objects are visited: fn must not mutate the reallocator, but may
// call the lock-free aggregate reads. Under a concurrently running
// rebalancer an object migrating between an already-visited and a
// not-yet-visited shard can be missed or seen twice; quiesce the
// rebalancer (Close, or no concurrent Rebalance) for an exact iteration.
func (s *ShardedReallocator) ForEach(fn func(id int64, ext Extent)) {
	for _, sh := range s.shards {
		sh.mu.RLock()
		sh.inner.ForEach(func(id addrspace.ID, e addrspace.Extent) {
			fn(int64(id), Extent{Start: e.Start, Size: e.Size})
		})
		sh.mu.RUnlock()
	}
}

// CheckInvariants validates every shard's full structure; see
// WithInvariantChecks. It also cross-checks each shard's lock-free
// mirror block against the core's true counters — a mirror that drifted
// from the structure it shadows is an invariant violation of the sharded
// layer itself.
func (s *ShardedReallocator) CheckInvariants() error {
	for i, sh := range s.shards {
		sh.mu.Lock()
		err := sh.inner.CheckInvariants()
		if err == nil {
			err = sh.checkMirror()
		}
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// checkMirror verifies the lock-free mirrors match the core; caller
// holds mu, so the core is quiescent and the mirrors must be exact.
func (sh *shard) checkMirror() error {
	if got, want := sh.vol.Load(), sh.inner.Volume(); got != want {
		return fmt.Errorf("volume mirror %d != core %d", got, want)
	}
	if got, want := sh.foot.Load(), sh.inner.Footprint(); got != want {
		return fmt.Errorf("footprint mirror %d != core %d", got, want)
	}
	if got, want := int(sh.objects.Load()), sh.inner.Len(); got != want {
		return fmt.Errorf("len mirror %d != core %d", got, want)
	}
	if got, want := sh.flushes.Load(), sh.inner.Flushes(); got != want {
		return fmt.Errorf("flushes mirror %d != core %d", got, want)
	}
	if got, want := sh.delta.Load(), sh.inner.Delta(); got != want {
		return fmt.Errorf("delta mirror %d != core %d", got, want)
	}
	if got, want := sh.active.Load(), sh.inner.FlushActive(); got != want {
		return fmt.Errorf("flush-active mirror %v != core %v", got, want)
	}
	if s := sh.seq.Load(); s&1 != 0 {
		return fmt.Errorf("mirror seqlock left odd (%d)", s)
	}
	return nil
}

// Backend reports the payload data backend the shards run (shared
// configuration; each shard owns a private arena of this kind).
func (s *ShardedReallocator) Backend() Backend {
	sh := s.shards[0]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return Backend(sh.inner.Data().Kind())
}

// BytesMoved returns the cumulative payload volume relocations have
// carried, summed over shards. Cross-shard migrations are not included:
// they are one delete plus one insert, not a relocation.
func (s *ShardedReallocator) BytesMoved() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.inner.Data().Counters().BytesMoved
		sh.mu.RUnlock()
	}
	return n
}

// Write copies p into object id's payload bytes on the owning shard.
// len(p) must not exceed the object's size. It requires a real backend
// (see WithBackend); under Metered it fails.
func (s *ShardedReallocator) Write(id int64, p []byte) error {
	sh, _ := s.acquire(id)
	defer sh.mu.Unlock()
	return sh.inner.Write(addrspace.ID(id), p)
}

// Read copies object id's payload bytes into p, returning how many
// bytes were copied: min(len(p), size). Like Extent, it takes only the
// owning shard's read lock, so concurrent reads of one shard never
// serialize — and a flush on another shard never blocks this one.
func (s *ShardedReallocator) Read(id int64, p []byte) (int, error) {
	sh := s.acquireRead(id)
	defer sh.mu.RUnlock()
	return sh.inner.Read(addrspace.ID(id), p)
}

// Bytes returns a copy of object id's payload. Unlike the single-
// structure facade it cannot return the live slice: another goroutine's
// insert may relocate the object the moment the shard lock drops.
func (s *ShardedReallocator) Bytes(id int64) ([]byte, bool) {
	sh := s.acquireRead(id)
	defer sh.mu.RUnlock()
	b, ok := sh.inner.Bytes(addrspace.ID(id))
	if !ok {
		return nil, false
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, true
}

// ShardSnapshot is one shard's state captured from its mirror block.
type ShardSnapshot struct {
	Len       int
	Volume    int64
	Footprint int64
}

// Snapshot captures every shard's (len, volume, footprint) triple — each
// internally consistent, read from that shard's seqlocked mirror block —
// plus totals that are exactly the sums of the captured per-shard terms.
// Under concurrent mutation the totals may not correspond to any single
// global instant (shards are visited one at a time), but they are always
// consistent with the per-shard entries returned alongside them; this is
// the documented snapshot semantics of all aggregate reads, unchanged
// from the locked implementation — only the locks are gone.
type Snapshot struct {
	Shards    []ShardSnapshot
	Len       int
	Volume    int64
	Footprint int64
}

// Snapshot implements the aggregate-read contract above. It allocates
// the per-shard slice; monitoring loops should use ReadSnapshot.
func (s *ShardedReallocator) Snapshot() Snapshot {
	snap := Snapshot{Shards: make([]ShardSnapshot, 0, len(s.shards))}
	s.ReadSnapshot(&snap)
	return snap
}

// ReadSnapshot fills snap in place, reusing its Shards slice when it has
// capacity — the allocation-free form of Snapshot for monitoring loops.
func (s *ShardedReallocator) ReadSnapshot(snap *Snapshot) {
	snap.Shards = snap.Shards[:0]
	snap.Len, snap.Volume, snap.Footprint = 0, 0, 0
	for _, sh := range s.shards {
		ss := sh.readSnapshot()
		snap.Shards = append(snap.Shards, ss)
		snap.Len += ss.Len
		snap.Volume += ss.Volume
		snap.Footprint += ss.Footprint
	}
}

// ShardStats returns shard i's own accumulated metrics; ok=false unless
// the reallocator was built WithMetrics. The metrics recorder is written
// under the shard's write lock, so this takes the read side (readers
// don't block each other, only writers).
func (s *ShardedReallocator) ShardStats(i int) (Stats, bool) {
	sh := s.shards[i]
	if sh.metrics == nil {
		return Stats{}, false
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st := statsFromMetrics(sh.metrics)
	if sh.tel != nil {
		var snap telemetry.Snapshot
		s.telReg.ReadShardSnapshot(i, &snap)
		st.LatencyP99, st.FlushP99 = latencyP99s(&snap)
	}
	return st, true
}

// Stats returns metrics aggregated over all shards: counters are summed,
// MaxFootprintRatio is the worst per-shard ratio (the quantity each
// shard's (1+ε) bound actually constrains), and each cost ratio is the
// summed reallocation cost over the summed allocation cost. Migration
// counters and the per-shard volume spread are filled in whether or not a
// rebalancer is armed. It returns ok=false unless the reallocator was
// built WithMetrics.
//
// The per-shard volume vector comes from the lock-free mirrors; reading
// each shard's metrics recorder takes that shard's read lock (the
// recorder is plain memory written under the write lock). It allocates
// the result maps; monitoring loops should use ReadStats.
//
// A migration is accounted once in Migrations/MigratedVolume; the
// per-shard metrics it also touches see it as one delete on the source
// shard and one insert on the target shard, which is what each shard's
// cost meter honestly paid.
func (s *ShardedReallocator) Stats() (Stats, bool) {
	var st Stats
	if !s.ReadStats(&st) {
		return Stats{}, false
	}
	return st, true
}

// ReadStats fills st in place, reusing its maps when present — the
// allocation-free form of Stats for monitoring loops. It reports false
// (and leaves st untouched) unless the reallocator was built
// WithMetrics.
func (s *ShardedReallocator) ReadStats(st *Stats) bool {
	if s.shards[0].metrics == nil {
		return false
	}
	clearStats(st)
	volsPtr := s.volScratch.Get().(*[]int64)
	defer s.volScratch.Put(volsPtr)
	vols := (*volsPtr)[:0]
	// Per-function alloc sums accumulate in st.CostRatios (divided in
	// place below); realloc sums use a pooled scratch map, so a reused st
	// makes the whole read allocation-free.
	allocSums := st.CostRatios
	reallocSums := s.costScratch.Get().(map[string]float64)
	clear(reallocSums)
	defer s.costScratch.Put(reallocSums)
	linesPtr := s.lineScratch.Get().(*[]cost.Line)
	defer s.lineScratch.Put(linesPtr)
	for _, sh := range s.shards {
		sh.mu.RLock()
		// The mirror is exact here: publish runs under the write lock
		// after every mutation, and we hold the read side.
		vols = append(vols, sh.vol.Load())
		m := sh.metrics
		st.Inserts += m.Inserts
		st.Deletes += m.Deletes
		st.Moves += m.MovesTotal
		st.MovedVolume += m.MovedVolume
		if m.MaxRatioQuiescent > st.MaxFootprintRatio {
			st.MaxFootprintRatio = m.MaxRatioQuiescent
		}
		st.Flushes += m.Flushes
		st.Checkpoints += m.CheckpointsTotal
		if m.MaxCheckpointsFlush > st.MaxCheckpointsFlush {
			st.MaxCheckpointsFlush = m.MaxCheckpointsFlush
		}
		if m.MaxOpMovedVolume > st.MaxOpMovedVolume {
			st.MaxOpMovedVolume = m.MaxOpMovedVolume
		}
		*linesPtr = m.Meter.AppendLines((*linesPtr)[:0])
		for _, l := range *linesPtr {
			allocSums[l.Func] += l.AllocCost
			reallocSums[l.Func] += l.ReallocCost
			if l.MaxOpCost > st.MaxOpCost[l.Func] {
				st.MaxOpCost[l.Func] = l.MaxOpCost
			}
		}
		sh.mu.RUnlock()
	}
	for f, a := range allocSums {
		if a > 0 {
			st.CostRatios[f] = reallocSums[f] / a
		} else {
			st.CostRatios[f] = 0
		}
	}
	st.Migrations = s.migrations.Load()
	st.MigratedVolume = s.migratedVolume.Load()
	st.MaxShardVolume, st.MinShardVolume = vols[0], vols[0]
	for _, v := range vols[1:] {
		if v > st.MaxShardVolume {
			st.MaxShardVolume = v
		}
		if v < st.MinShardVolume {
			st.MinShardVolume = v
		}
	}
	st.VolumeSpread = rebalance.Skew(vols)
	*volsPtr = vols
	if s.telReg != nil {
		// The registry read is lock-free; the pooled snapshot keeps a
		// reused st at 0 allocs/op even with telemetry armed.
		snap := s.telScratch.Get().(*telemetry.Snapshot)
		s.telReg.ReadSnapshot(snap)
		st.LatencyP99, st.FlushP99 = latencyP99s(snap)
		s.telScratch.Put(snap)
	}
	return true
}

// clearStats resets st for reuse, keeping (and emptying) its maps.
func clearStats(st *Stats) {
	cr, moc := st.CostRatios, st.MaxOpCost
	if cr == nil {
		cr = map[string]float64{}
	} else {
		clear(cr)
	}
	if moc == nil {
		moc = map[string]float64{}
	} else {
		clear(moc)
	}
	*st = Stats{CostRatios: cr, MaxOpCost: moc}
}
