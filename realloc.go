package realloc

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"realloc/internal/addrspace"
	"realloc/internal/arena"
	"realloc/internal/engine"
	"realloc/internal/telemetry"
	"realloc/internal/trace"
)

// Variant selects the algorithm; see the package documentation.
type Variant int

// Available variants.
const (
	Amortized Variant = iota
	Checkpointed
	Deamortized
)

func (v Variant) String() string { return engine.Variant(v).String() }

// Core selects the reallocation algorithm family; see the "Choosing a
// core" section of the package documentation.
type Core int

// Available cores.
const (
	// CorePODS14 is the reference core: the PODS'14 cost-oblivious
	// reallocator, supporting all three variants.
	CorePODS14 Core = iota
	// CoreFCS is a slot-class core with the folklore bound, motivated by
	// Farach-Colton–Sheffield: amortized O(w/ε) moved volume per size-w
	// update, Amortized variant only.
	CoreFCS
)

func (c Core) String() string { return engine.Core(c).String() }

// Backend selects the payload data backend relocations execute against;
// see the "Backends" section of the package documentation.
type Backend int

// Available backends.
const (
	// Metered is the default: moved volume is counted exactly as a real
	// backend would pay it, but no bytes exist and no copies run. One
	// cell costs one byte, so metered counters and real-backend counters
	// are directly comparable.
	Metered Backend = iota
	// HeapArena stores payload bytes in a growable Go byte slice; every
	// relocation physically memmoves the object's extent.
	HeapArena
	// MmapArena stores payload bytes in an anonymous private memory
	// mapping (falling back to HeapArena semantics on platforms without
	// mmap); every relocation physically memmoves the object's extent.
	MmapArena
)

func (b Backend) String() string { return arena.Kind(b).String() }

// ParseBackend resolves a backend name (as printed by Backend.String).
func ParseBackend(s string) (Backend, error) {
	k, err := arena.ParseKind(s)
	return Backend(k), err
}

// Extent is a placement: the half-open cell interval
// [Start, Start+Size).
type Extent struct {
	Start int64
	Size  int64
}

// End returns the first address past the extent.
func (e Extent) End() int64 { return e.Start + e.Size }

// Option configures New.
type Option func(*config)

type config struct {
	epsilon   float64
	epsPrime  float64
	variant   Variant
	core      Core
	coreSet   bool
	observer  func(Event)
	metrics   bool
	paranoid  bool
	locking   bool
	shards    int
	shardsSet bool
	rebalance *RebalancePolicy
	tel       *telemetry.Registry
	backend   Backend
}

// validateEpsilon enforces the public contract at the constructor
// boundary. The message is engine.ValidateEpsilon's (which also rejects
// NaN) behind the package prefix, so the facade and the engine layer
// cannot drift.
func validateEpsilon(eps float64) error {
	if err := engine.ValidateEpsilon(eps); err != nil {
		return fmt.Errorf("realloc: %w", err)
	}
	return nil
}

// resolveCore picks the engine core a constructor builds: an explicit
// WithCore wins and is validated strictly; otherwise the REALLOC_CORE
// environment variable applies (unknown names are an error, but a core
// that cannot run the requested variant silently falls back to the
// reference core, so a test matrix exporting REALLOC_CORE=fcs leaves
// Checkpointed and Deamortized structures on the core that supports
// them); otherwise the reference core.
func (c *config) resolveCore() (engine.Core, error) {
	if c.coreSet {
		if err := engine.ValidateCombination(engine.Core(c.core), engine.Variant(c.variant)); err != nil {
			return 0, fmt.Errorf("realloc: %w", err)
		}
		return engine.Core(c.core), nil
	}
	if env := os.Getenv("REALLOC_CORE"); env != "" {
		ec, err := engine.ParseCore(env)
		if err != nil {
			return 0, fmt.Errorf("realloc: REALLOC_CORE: %w", err)
		}
		if !engine.Supports(ec, engine.Variant(c.variant)) {
			return engine.PODS14, nil
		}
		return ec, nil
	}
	return engine.PODS14, nil
}

// buildEngine constructs one engine from the resolved core and this
// config.
func (c *config) buildEngine(ec engine.Core, rec trace.Recorder, tel *telemetry.Set) (engine.Engine, error) {
	// Each engine owns a private arena: shards never share payload
	// memory, so per-shard relocations memmove without cross-shard
	// coordination.
	data, err := arena.New(arena.Kind(c.backend))
	if err != nil {
		return nil, fmt.Errorf("realloc: %w", err)
	}
	e, err := engine.New(engine.Config{
		Core:      ec,
		Variant:   engine.Variant(c.variant),
		Epsilon:   c.epsilon,
		EpsPrime:  c.epsPrime,
		Recorder:  rec,
		Paranoid:  c.paranoid,
		Telemetry: tel,
		Arena:     data,
	})
	if err != nil {
		return nil, fmt.Errorf("realloc: %w", err)
	}
	return e, nil
}

// validateSize is the one definition of the public size contract, shared
// by both front-ends so their messages cannot drift. core re-checks the
// same bound defensively, but callers of the public API always see this
// error.
func validateSize(size int64) error {
	if size < 1 {
		return fmt.Errorf("realloc: object size must be >= 1, got %d", size)
	}
	return nil
}

// WithEpsilon sets the footprint slack target ε in (0, 1]: the footprint
// stays within (1+ε)·V. Default 0.25.
func WithEpsilon(eps float64) Option { return func(c *config) { c.epsilon = eps } }

// WithVariant selects the algorithm variant. Default Amortized.
func WithVariant(v Variant) Option { return func(c *config) { c.variant = v } }

// WithCore selects the reallocation core. Default CorePODS14; when the
// option is absent, the REALLOC_CORE environment variable ("pods14" or
// "fcs") picks the core instead wherever the requested variant
// allows it. An explicit core that cannot run the requested variant is a
// constructor error.
func WithCore(c Core) Option {
	return func(cfg *config) { cfg.core, cfg.coreSet = c, true }
}

// WithObserver registers a callback receiving every placement event —
// the hook a block translation layer uses to track physical addresses.
func WithObserver(fn func(Event)) Option { return func(c *config) { c.observer = fn } }

// WithMetrics enables the built-in metrics pipeline, which prices the
// reallocation trace under the standard subadditive cost family; read the
// results with Stats.
func WithMetrics() Option { return func(c *config) { c.metrics = true } }

// WithInvariantChecks re-validates all structural invariants after every
// request, turning violations into errors, and cross-checks every batched
// flush application against a full substrate verification. Intended for
// tests; it is O(n) per request.
func WithInvariantChecks() Option { return func(c *config) { c.paranoid = true } }

// WithLocking serializes all methods with a mutex, making the Reallocator
// safe for concurrent use. (The algorithm itself is inherently sequential
// — requests are an ordered stream — so a single lock is the honest
// concurrency model.) For parallel throughput beyond a single lock, see
// NewSharded.
func WithLocking() Option { return func(c *config) { c.locking = true } }

// WithShards sets the shard count for NewSharded. It only applies to
// NewSharded; passing it to New is an error. Default: runtime.GOMAXPROCS.
func WithShards(n int) Option {
	return func(c *config) { c.shards, c.shardsSet = n, true }
}

// WithTelemetry arms the runtime telemetry layer on the registry: the
// reallocator records wall-clock op-latency histograms per kind, flush
// duration/stall/chunk/moved-volume histograms, rebalancer migration
// latency, and checkpoint counts into reg. A sharded reallocator
// records into one Set per shard (reg.Shard(i)); reading the registry
// aggregates them. Recording costs two atomic adds plus two clock
// reads per op; without this option every telemetry site is a single
// nil check. The same registry may also be served live — see
// telemetry.Handler and telemetry.NewServeMux — and read at any
// frequency concurrently with operation (snapshot reads take no locks
// and allocate nothing).
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *config) { c.tel = reg }
}

// WithBackend selects the payload data backend. The default, Metered,
// counts moved volume without storing bytes — the cost-model view. A
// real backend (HeapArena, MmapArena) stores each object's payload at
// its physical extent and memmoves it on every relocation, and unlocks
// the payload API: Write, Read, and Bytes.
func WithBackend(b Backend) Option { return func(c *config) { c.backend = b } }

// WithRebalance arms dynamic cross-shard rebalancing on a sharded
// reallocator: per-shard live volume is watched, and once the imbalance
// ratio max/mean exceeds the policy threshold, bounded batches of objects
// are migrated from overloaded to underloaded shards (rerouting their
// ids) until the volumes level. It only applies to NewSharded; passing it
// to New is an error. See RebalancePolicy for the two trigger modes.
func WithRebalance(p RebalancePolicy) Option {
	return func(c *config) { c.rebalance = &p }
}

// Reallocator is the public handle for the cost-oblivious storage
// reallocator.
type Reallocator struct {
	inner   engine.Engine
	core    Core // fixed at construction
	metrics *trace.Metrics
	mu      *sync.Mutex // non-nil iff WithLocking
	// tel is this structure's telemetry set (nil without WithTelemetry);
	// telReg is the whole registry, kept for Stats aggregation.
	tel    *telemetry.Set
	telReg *telemetry.Registry
	// bs is the batched-path scratch; Apply touches it only under the
	// facade lock (or the caller's external serialization, same as every
	// other mutation without WithLocking).
	bs batchScratch
}

// newRecorder builds the recorder chain one reallocator core emits into:
// metrics if enabled, plus the user observer tagged with the emitting
// shard (0 for a plain Reallocator).
func newRecorder(cfg *config, shard int) (trace.Recorder, *trace.Metrics) {
	var recs trace.Multi
	var m *trace.Metrics
	if cfg.metrics {
		m = trace.NewMetrics()
		recs = append(recs, m)
	}
	if cfg.observer != nil {
		recs = append(recs, observerAdapter{fn: cfg.observer, shard: shard})
	}
	switch len(recs) {
	case 0:
		return trace.Null{}, m
	case 1:
		return recs[0], m
	default:
		return recs, m
	}
}

// lock acquires the optional mutex and returns its release function.
func (r *Reallocator) lock() func() {
	if r.mu == nil {
		return func() {}
	}
	r.mu.Lock()
	return r.mu.Unlock
}

// New creates a Reallocator.
func New(opts ...Option) (*Reallocator, error) {
	cfg := config{epsilon: 0.25}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shardsSet {
		return nil, errors.New("realloc: WithShards requires NewSharded")
	}
	if cfg.rebalance != nil {
		return nil, errors.New("realloc: WithRebalance requires NewSharded")
	}
	if err := validateEpsilon(cfg.epsilon); err != nil {
		return nil, err
	}
	ec, err := cfg.resolveCore()
	if err != nil {
		return nil, err
	}
	rec, m := newRecorder(&cfg, 0)
	var set *telemetry.Set
	if cfg.tel != nil {
		set = cfg.tel.Shard(0)
	}
	inner, err := cfg.buildEngine(ec, rec, set)
	if err != nil {
		return nil, err
	}
	out := &Reallocator{inner: inner, core: Core(ec), metrics: m, tel: set, telReg: cfg.tel}
	if cfg.locking {
		out.mu = new(sync.Mutex)
	}
	return out, nil
}

// Insert services 〈InsertObject, id, size〉: it allocates a size-cell
// object under the caller's non-zero id.
func (r *Reallocator) Insert(id int64, size int64) error {
	if err := validateSize(size); err != nil {
		return err
	}
	if r.tel == nil {
		defer r.lock()()
		return r.inner.Insert(addrspace.ID(id), size)
	}
	// Op latency is wall-clock as the caller experiences it: lock wait
	// included, flush work the op performs included.
	start := telemetry.Now()
	defer r.lock()()
	err := r.inner.Insert(addrspace.ID(id), size)
	r.tel.InsertLatency.Record(telemetry.Now() - start)
	return err
}

// Delete services 〈DeleteObject, id〉.
func (r *Reallocator) Delete(id int64) error {
	if r.tel == nil {
		defer r.lock()()
		return r.inner.Delete(addrspace.ID(id))
	}
	start := telemetry.Now()
	defer r.lock()()
	err := r.inner.Delete(addrspace.ID(id))
	r.tel.DeleteLatency.Record(telemetry.Now() - start)
	return err
}

// Extent returns the object's current physical placement. Placements
// change as the reallocator moves objects; track them live with
// WithObserver.
func (r *Reallocator) Extent(id int64) (Extent, bool) {
	defer r.lock()()
	e, ok := r.inner.Extent(addrspace.ID(id))
	return Extent{Start: e.Start, Size: e.Size}, ok
}

// Has reports whether the object is live.
func (r *Reallocator) Has(id int64) bool {
	defer r.lock()()
	return r.inner.Has(addrspace.ID(id))
}

// Len returns the number of live objects.
func (r *Reallocator) Len() int {
	defer r.lock()()
	return r.inner.Len()
}

// Volume returns the total live volume V.
func (r *Reallocator) Volume() int64 {
	defer r.lock()()
	return r.inner.Volume()
}

// Footprint returns the largest allocated address — the quantity kept
// within (1+ε)·V.
func (r *Reallocator) Footprint() int64 {
	defer r.lock()()
	return r.inner.Footprint()
}

// Delta returns the largest object size seen (the paper's ∆).
func (r *Reallocator) Delta() int64 {
	defer r.lock()()
	return r.inner.Delta()
}

// Epsilon returns the configured footprint slack.
func (r *Reallocator) Epsilon() float64 {
	defer r.lock()()
	return r.inner.Epsilon()
}

// Core reports the core the reallocator runs, fixed at construction.
func (r *Reallocator) Core() Core { return r.core }

// Flushes returns how many buffer flushes have run.
func (r *Reallocator) Flushes() int64 {
	defer r.lock()()
	return r.inner.Flushes()
}

// FlushActive reports whether a deamortized flush is mid-execution.
func (r *Reallocator) FlushActive() bool {
	defer r.lock()()
	return r.inner.FlushActive()
}

// Drain completes any in-progress deamortized flush.
func (r *Reallocator) Drain() error {
	defer r.lock()()
	return r.inner.Drain()
}

// ForEach visits live objects in address order.
func (r *Reallocator) ForEach(fn func(id int64, ext Extent)) {
	defer r.lock()()
	r.inner.ForEach(func(id addrspace.ID, e addrspace.Extent) {
		fn(int64(id), Extent{Start: e.Start, Size: e.Size})
	})
}

// CheckInvariants validates the full structure; see WithInvariantChecks.
func (r *Reallocator) CheckInvariants() error {
	defer r.lock()()
	return r.inner.CheckInvariants()
}

// Backend reports the payload data backend the reallocator runs.
func (r *Reallocator) Backend() Backend {
	defer r.lock()()
	return Backend(r.inner.Data().Kind())
}

// BytesMoved returns the cumulative payload volume relocations have
// carried, in bytes. One cell is one byte, so on the same request
// stream a Metered and a HeapArena reallocator report the same number —
// the former counts it, the latter pays it.
func (r *Reallocator) BytesMoved() int64 {
	defer r.lock()()
	return r.inner.Data().Counters().BytesMoved
}

// Write copies p into object id's payload bytes, starting at the
// object's first cell. len(p) must not exceed the object's size. It
// requires a real backend (see WithBackend); under Metered it fails.
func (r *Reallocator) Write(id int64, p []byte) error {
	defer r.lock()()
	return r.inner.Write(addrspace.ID(id), p)
}

// Read copies object id's payload bytes into p, returning how many
// bytes were copied: min(len(p), size). It requires a real backend.
func (r *Reallocator) Read(id int64, p []byte) (int, error) {
	defer r.lock()()
	return r.inner.Read(addrspace.ID(id), p)
}

// Bytes returns object id's live payload slice, aliasing backend
// memory. The slice is valid only until the next mutating call — any
// insert or delete can move the object or grow the backend. It requires
// a real backend.
func (r *Reallocator) Bytes(id int64) ([]byte, bool) {
	defer r.lock()()
	return r.inner.Bytes(addrspace.ID(id))
}
