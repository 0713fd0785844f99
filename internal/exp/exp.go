// Package exp is the experiment harness: one function per experiment
// (E1–E17; `reallocbench -list` prints each claim, and README's
// "Experiment harness" shows how to run them), each regenerating the
// table or figure that validates a claim of the paper. The harness is
// shared by cmd/reallocbench, the root benchmark suite, and the
// integration tests that assert the *shape* of each result (who wins, by
// what order, where bounds hold).
package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"realloc"
	"realloc/internal/arena"
	"realloc/internal/core"
	"realloc/internal/engine"
	"realloc/internal/telemetry"
	"realloc/internal/trace"
	"realloc/internal/workload"
)

// Config scales and seeds an experiment run.
type Config struct {
	Seed uint64
	// Ops is the per-run request budget; experiments choose sensible
	// defaults when 0.
	Ops int
	// Quick shrinks workloads for smoke tests and -short mode.
	Quick bool
	// Core optionally restricts cross-core experiments (E16, E17) to a
	// single core, named as engine.ParseCore understands ("pods14" or
	// "fcs"). Empty means both cores.
	Core string
	// Backend optionally restricts cross-backend experiments (E17) to a
	// single payload backend, named as arena.ParseKind understands
	// ("metered", "heap", "mmap"). Empty means metered and heap.
	Backend string
	// Telemetry optionally arms the runtime telemetry layer on every
	// public-facade structure an experiment builds (E13–E15). The caller
	// owns the registry: it can serve it live while the experiment runs
	// and digest it into findings afterwards.
	Telemetry *telemetry.Registry
}

// telOpts appends WithTelemetry to a facade option list when the run is
// telemetry-armed.
func (c Config) telOpts(opts ...realloc.Option) []realloc.Option {
	if c.Telemetry != nil {
		opts = append(opts, realloc.WithTelemetry(c.Telemetry))
	}
	return opts
}

// cores resolves the Core filter against the full panel.
func (c Config) cores() ([]engine.Core, error) {
	all := []engine.Core{engine.PODS14, engine.FCS}
	if c.Core == "" {
		return all, nil
	}
	ec, err := engine.ParseCore(c.Core)
	if err != nil {
		return nil, err
	}
	return []engine.Core{ec}, nil
}

// backends resolves the Backend filter; the default panel is the metered
// cost model plus the heap arena (mmap only runs when asked for, since
// it measures the same copies through a different allocation path).
func (c Config) backends() ([]arena.Kind, error) {
	if c.Backend == "" {
		return []arena.Kind{arena.Metered, arena.Heap}, nil
	}
	k, err := arena.ParseKind(c.Backend)
	if err != nil {
		return nil, err
	}
	return []arena.Kind{k}, nil
}

func (c Config) ops(def int) int {
	if c.Ops > 0 {
		return c.Ops
	}
	if c.Quick {
		return def / 10
	}
	return def
}

// Result is a rendered experiment report plus machine-checkable findings.
type Result struct {
	ID    string
	Title string
	// Text is the rendered report (tables/figures).
	Text string
	// Findings maps named quantities to values for shape assertions in
	// tests (e.g. "amortized/unit/ratio" -> 3.1).
	Findings map[string]float64
}

// Experiment couples an ID with its runner.
type Experiment struct {
	ID    string
	Title string
	Claim string
	Run   func(Config) (*Result, error)
}

// All returns the experiment suite in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Footprint competitiveness vs epsilon",
			"Thm 2.1/Lemma 2.5: footprint <= (1+eps)*V after every request", E1},
		{"E2", "Cost obliviousness across the subadditive family",
			"Thm 2.1/Lemma 2.6: realloc cost <= O((1/eps)log(1/eps)) * alloc cost for every subadditive f", E2},
		{"E3", "Baseline crossover: log+compact vs class-gap vs cost-oblivious",
			"Sec 2 intuition: each specialized strategy fails off its home cost function; ours is good everywhere", E3},
		{"E4", "No-move allocators hit the log lower bound",
			"Sec 1: allocation without moves forces footprint blowup; reallocation escapes it", E4},
		{"E5", "Cost-oblivious defragmentation",
			"Thm 2.7: sort in (1+eps)V+Delta space with O((1/eps)log(1/eps)) moves/object; naive needs 2V", E5},
		{"E6", "Checkpointed flushes",
			"Lemmas 3.1-3.3: O(1/eps) checkpoints per flush; space (1+O(eps'))V+O(Delta); nonoverlapping moves", E6},
		{"E7", "Deamortization caps per-request work",
			"Lemmas 3.4-3.6: per-request reallocated volume <= (4/eps')w + Delta; amortized cost unchanged", E7},
		{"E8", "Worst-case lower bound is realized",
			"Lemma 3.7: any (3/2)V-footprint algorithm pays Omega(f(Delta)) on some request", E8},
		{"E9", "Figures 1-3 as ASCII renderings",
			"Figure 1: moving blocks shrinks the footprint; Figure 2: region layout; Figure 3: flush walkthrough", E9},
		{"E10", "Ablations: buffer fraction and size distributions",
			"Design choices: eps' trades footprint for moves; heavy tails and class boundaries do not break bounds", E10},
		{"E11", "Database end-to-end",
			"Secs 1/3.1: block store with translation layer: tight disk footprint, media-oblivious cost, crash-safe recovery", E11},
		{"E12", "The price of obliviousness",
			"What the O((1/eps)log(1/eps)) guarantee costs versus each cost-aware specialist on its home function", E12},
		{"E13", "Sharded concurrency scaling",
			"Per-allocator guarantees survive hash partitioning: sharding multiplies throughput while each shard keeps footprint <= (1+eps)*V_shard", E13},
		{"E14", "Cross-shard rebalancing under zipf skew",
			"Per-allocator guarantees survive migration: rebalancing levels a zipf-skewed volume (spread <= 2x vs > 4x static) and recovers parallel throughput, keeping footprint <= (1+eps)*V", E14},
		{"E15", "Lock-free front-end parallel scaling",
			"Uncontended operations touch no shared mutable cache line except their own shard: routing is one atomic load, per-object reads take only a shard read lock, aggregate reads take none", E15},
		{"E16", "Cost vs epsilon across reallocation cores",
			"Engine boundary: the PODS'14 reference and the FCS successor both hold footprint <= (1+eps)*V at quiescence on uniform, zipf, and adversarial workloads, each inside its own per-core cost bound", E16},
		{"E17", "Metered cost model vs real memmove backends",
			"Backend boundary: replaying identical streams, the metered counter, the trace's moved volume, and the bytes a real arena physically memmoves agree exactly (one cell = one byte); the measured copy throughput prices the moved-volume unit in wall-clock", E17},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment, writing reports to w.
func RunAll(cfg Config, w io.Writer) error {
	for _, e := range All() {
		res, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(w, "== %s: %s ==\nClaim: %s\n\n%s\n", e.ID, e.Title, e.Claim, res.Text)
	}
	return nil
}

// newCore builds a reference-core reallocator wired to fresh metrics.
// Variants are named by the shared engine enum; the cast to the core's
// private copy is pinned by internal/engine's drift test.
func newCore(variant engine.Variant, eps float64) (*core.Reallocator, *trace.Metrics, error) {
	m := trace.NewMetrics()
	r, err := core.New(core.Config{Epsilon: eps, Variant: core.Variant(variant), Recorder: m})
	return r, m, err
}

// newEngine builds any core behind the engine boundary, wired to fresh
// metrics. Cross-core experiments (E16) go through here so they exercise
// exactly the dispatch the public facade uses.
func newEngine(c engine.Core, eps float64) (engine.Engine, *trace.Metrics, error) {
	m := trace.NewMetrics()
	e, err := engine.New(engine.Config{Core: c, Epsilon: eps, Recorder: m})
	return e, m, err
}

// drive replays n churn ops and drains.
func drive(r *core.Reallocator, s workload.Stream, n int) error {
	if _, err := workload.Drive(r, s, n); err != nil {
		return err
	}
	return r.Drain()
}

// driveEngine replays n churn ops into any engine and drains.
func driveEngine(e engine.Engine, s workload.Stream, n int) error {
	if _, err := workload.Drive(e, s, n); err != nil {
		return err
	}
	return e.Drain()
}

// findingsKeys returns sorted keys (stable rendering helpers).
func findingsKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
