// Package engine defines the pluggable reallocation-engine boundary: the
// Engine interface every core implements, the shared Variant and Core
// enums consumed by the public facade, the experiment harness, and the
// benchmark tooling, and the one factory that builds a configured engine.
//
// An Engine is one sequential reallocator: it services the paper's
// request stream (InsertObject/DeleteObject), keeps every live object
// physically placed in a private address space, and emits the trace
// events recorders price. The PODS'14 cost-oblivious reallocator
// (internal/core) is the reference implementation; internal/engine/fcs
// is a slot-class core with the folklore O(w/ε) bound, motivated by
// Farach-Colton–Sheffield, behind the same interface. Each structure's
// core is fixed when New builds it; core selection lives here, so the
// facade, the sharded front-end, and the harness all pick engines
// through one seam.
package engine

import (
	"fmt"

	"realloc/internal/addrspace"
	"realloc/internal/arena"
	"realloc/internal/core"
	"realloc/internal/engine/fcs"
	"realloc/internal/telemetry"
	"realloc/internal/trace"
)

// ID identifies an object; it is the caller's handle (the paper's "name").
type ID = addrspace.ID

// Variant selects which of the PODS'14 paper's algorithms a core runs.
// It is the one shared enum: the public realloc.Variant, the experiment
// harness, and cmd/reallocbench all consume this type (internal/core
// keeps a structurally identical private copy; TestVariantEnumDrift pins
// the two together).
type Variant int

// Available variants.
const (
	// Amortized is the Section 2 algorithm: atomic flushes, memmove-style
	// moves, no checkpoint model.
	Amortized Variant = iota
	// Checkpointed is the Section 3.2 algorithm: strictly nonoverlapping
	// moves under the checkpoint rule.
	Checkpointed
	// Deamortized is the Section 3.3 algorithm: Checkpointed plus a tail
	// buffer and update log capping per-request reallocation.
	Deamortized
)

func (v Variant) String() string {
	switch v {
	case Amortized:
		return "amortized"
	case Checkpointed:
		return "checkpointed"
	case Deamortized:
		return "deamortized"
	default:
		return "unknown"
	}
}

// ParseVariant resolves a variant name (as printed by Variant.String).
func ParseVariant(s string) (Variant, error) {
	for _, v := range []Variant{Amortized, Checkpointed, Deamortized} {
		if s == v.String() {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q (valid: amortized, checkpointed, deamortized)", s)
}

// Core selects the reallocation algorithm family.
type Core int

// Available cores.
const (
	// PODS14 is the reference core: the Bender et al. PODS'14
	// cost-oblivious reallocator (all three variants).
	PODS14 Core = iota
	// FCS is a slot-class core with the folklore bound, motivated by
	// Farach-Colton–Sheffield: size-class slots with swap-with-last
	// compaction and whole-structure rebuilds, amortized O(w/ε) moved
	// volume per size-w update (amortized only).
	FCS
)

func (c Core) String() string {
	switch c {
	case PODS14:
		return "pods14"
	case FCS:
		return "fcs"
	default:
		return "unknown"
	}
}

// ParseCore resolves a core name (as printed by Core.String).
func ParseCore(s string) (Core, error) {
	for _, c := range []Core{PODS14, FCS} {
		if s == c.String() {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown core %q (valid: pods14, fcs)", s)
}

// Engine is the reallocation-engine boundary: one sequential reallocator
// servicing the request stream against a private address space. Engines
// are not safe for concurrent use; the facade layers locking and
// sharding on top.
type Engine interface {
	// Insert services 〈InsertObject, id, size〉; the object is physically
	// placed before the call returns.
	Insert(id ID, size int64) error
	// Delete services 〈DeleteObject, id〉.
	Delete(id ID) error
	// ApplyGroup services a batched op group through the same per-op
	// machinery as Insert and Delete — no algorithmic change — filling
	// errs[i] with op i's result. errs must have at least len(ops)
	// slots. The group entry lets callers amortize their own per-op
	// overhead (locking, mirror republish, telemetry) across the group.
	ApplyGroup(ops []addrspace.Op, errs []error)
	// Extent returns the object's current physical placement.
	Extent(id ID) (addrspace.Extent, bool)
	// Has reports whether id is live.
	Has(id ID) bool
	// SizeOf returns the size of object id.
	SizeOf(id ID) (int64, bool)
	// Len returns the number of live objects.
	Len() int
	// Volume returns the total live volume V.
	Volume() int64
	// Footprint returns the largest allocated address — the quantity the
	// competitive ratio bounds.
	Footprint() int64
	// StructSize returns the end of the bookkeeping structure including
	// holes and empty buffer/slot space (the conservative bound).
	StructSize() int64
	// Delta returns the largest object size seen (the paper's ∆).
	Delta() int64
	// Epsilon returns the configured footprint slack target.
	Epsilon() float64
	// Flushes returns how many flushes (or rebuilds) have run.
	Flushes() int64
	// FlushActive reports whether an incremental flush session is
	// mid-execution (always false for atomic cores).
	FlushActive() bool
	// Drain completes any in-progress incremental flush session.
	Drain() error
	// ForEach visits live objects in address order.
	ForEach(fn func(id ID, ext addrspace.Extent))
	// CheckInvariants validates the full structure.
	CheckInvariants() error
	// Data exposes the payload backend relocations execute against.
	Data() arena.Backend
	// Write copies p into object id's payload bytes; it fails with
	// addrspace.ErrNoData unless the engine runs a real backend.
	Write(id ID, p []byte) error
	// Read copies object id's payload bytes into p, returning how many
	// bytes were copied: min(len(p), size).
	Read(id ID, p []byte) (int, error)
	// Bytes returns object id's live payload slice, aliasing backend
	// memory; it is valid only until the next mutating call.
	Bytes(id ID) ([]byte, bool)
}

// Config parameterizes New.
type Config struct {
	// Core selects the algorithm family; the zero value is PODS14.
	Core Core
	// Variant selects the PODS'14 algorithm variant; non-amortized
	// variants are rejected for cores that have no such path.
	Variant Variant
	// Epsilon is the footprint slack target in (0, 1].
	Epsilon float64
	// EpsPrime overrides the PODS'14 internal buffer fraction ε'; cores
	// without a buffer fraction ignore it.
	EpsPrime float64
	// Recorder receives the event stream; nil means trace.Null.
	Recorder trace.Recorder
	// TrackCells enables per-cell data stamps in the substrate.
	TrackCells bool
	// Paranoid re-validates every structural invariant after each request.
	Paranoid bool
	// Telemetry, when non-nil, receives the core's wall-clock flush
	// timings (duration, stall, chunk, moved volume) and checkpoint
	// counts; the facade layers its own op-latency recording on top.
	Telemetry *telemetry.Set
	// Arena is the payload backend relocations execute against. Nil
	// defaults to a core-private metered backend: moved volume is
	// counted, no bytes are copied.
	Arena arena.Backend
}

// ValidateEpsilon is the one definition of the epsilon contract; every
// consumer (the public facade included) derives its message from this
// error, so the texts cannot drift.
func ValidateEpsilon(eps float64) error {
	if !(eps > 0) || eps > 1 {
		return fmt.Errorf("epsilon must be in (0, 1], got %g", eps)
	}
	return nil
}

// ValidateCore rejects values outside the enum.
func ValidateCore(c Core) error {
	if c < PODS14 || c > FCS {
		return fmt.Errorf("unknown core %d (valid: pods14, fcs)", int(c))
	}
	return nil
}

// ValidateVariant rejects values outside the enum.
func ValidateVariant(v Variant) error {
	if v < Amortized || v > Deamortized {
		return fmt.Errorf("unknown variant %d (valid: amortized, checkpointed, deamortized)", int(v))
	}
	return nil
}

// Supports reports whether core c implements variant v. The FCS core is
// an amortized-only algorithm: it has no checkpointed or deamortized
// path.
func Supports(c Core, v Variant) bool {
	if ValidateCore(c) != nil || ValidateVariant(v) != nil {
		return false
	}
	return c == PODS14 || v == Amortized
}

// ValidateCombination rejects core/variant pairs the core cannot run,
// with the canonical message the public boundary surfaces.
func ValidateCombination(c Core, v Variant) error {
	if err := ValidateCore(c); err != nil {
		return err
	}
	if err := ValidateVariant(v); err != nil {
		return err
	}
	if !Supports(c, v) {
		return fmt.Errorf("core %s does not support the %s variant (supported: amortized)", c, v)
	}
	return nil
}

// New validates cfg and builds the configured engine: a
// *core.Reallocator for PODS14, a *fcs.Reallocator for FCS.
func New(cfg Config) (Engine, error) {
	if err := ValidateEpsilon(cfg.Epsilon); err != nil {
		return nil, err
	}
	if err := ValidateCombination(cfg.Core, cfg.Variant); err != nil {
		return nil, err
	}
	if cfg.Core == FCS {
		e, err := fcs.New(fcs.Config{
			Epsilon:    cfg.Epsilon,
			Recorder:   cfg.Recorder,
			TrackCells: cfg.TrackCells,
			Paranoid:   cfg.Paranoid,
			Telemetry:  cfg.Telemetry,
			Arena:      cfg.Arena,
		})
		if err != nil {
			return nil, err
		}
		return e, nil
	}
	e, err := core.New(core.Config{
		Epsilon:    cfg.Epsilon,
		EpsPrime:   cfg.EpsPrime,
		Variant:    core.Variant(cfg.Variant),
		Recorder:   cfg.Recorder,
		TrackCells: cfg.TrackCells,
		Paranoid:   cfg.Paranoid,
		Telemetry:  cfg.Telemetry,
		Arena:      cfg.Arena,
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}
