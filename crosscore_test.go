package realloc_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"realloc"
)

// coresUnderTest enumerates every public core selection.
var coresUnderTest = []realloc.Core{realloc.CorePODS14, realloc.CoreFCS}

// TestCoreString: public names match the engine-layer names the CLI and
// REALLOC_CORE use.
func TestCoreString(t *testing.T) {
	want := map[realloc.Core]string{
		realloc.CorePODS14: "pods14",
		realloc.CoreFCS:    "fcs",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("Core(%d).String() = %q, want %q", int(c), c.String(), name)
		}
	}
}

// TestWithCoreValidation: both constructors reject unknown cores and
// core/variant combinations the core cannot run, with identical
// messages (the validation is defined once, in internal/engine).
func TestWithCoreValidation(t *testing.T) {
	_, err := realloc.New(realloc.WithCore(realloc.Core(42)))
	if err == nil || !strings.Contains(err.Error(), "unknown core 42") {
		t.Errorf("New(core=42) error = %v, want unknown core message", err)
	}
	for _, v := range []realloc.Variant{realloc.Checkpointed, realloc.Deamortized} {
		for _, c := range []realloc.Core{realloc.CoreFCS} {
			want := fmt.Sprintf("core %s does not support the %s variant (supported: amortized)", c, v)
			errSingle := errOf(realloc.New(realloc.WithCore(c), realloc.WithVariant(v)))
			if errSingle == nil || !strings.Contains(errSingle.Error(), want) {
				t.Errorf("New(%v,%v) error = %v, want %q", c, v, errSingle, want)
			}
			errSharded := errOfSharded(realloc.NewSharded(realloc.WithShards(2), realloc.WithCore(c), realloc.WithVariant(v)))
			if errSharded == nil || !strings.Contains(errSharded.Error(), want) {
				t.Errorf("NewSharded(%v,%v) error = %v, want %q", c, v, errSharded, want)
			}
			// One shared definition: the two facades can never drift.
			if errSingle != nil && errSharded != nil && errSingle.Error() != errSharded.Error() {
				t.Errorf("facade messages drifted: %q vs %q", errSingle, errSharded)
			}
		}
	}
	// Every valid combination constructs.
	for _, c := range coresUnderTest {
		if _, err := realloc.New(realloc.WithCore(c)); err != nil {
			t.Errorf("New(%v) rejected: %v", c, err)
		}
	}
	for _, v := range []realloc.Variant{realloc.Amortized, realloc.Checkpointed, realloc.Deamortized} {
		if _, err := realloc.New(realloc.WithCore(realloc.CorePODS14), realloc.WithVariant(v)); err != nil {
			t.Errorf("New(pods14, %v) rejected: %v", v, err)
		}
	}
}

func errOf(_ *realloc.Reallocator, err error) error               { return err }
func errOfSharded(_ *realloc.ShardedReallocator, err error) error { return err }

// TestReallocCoreEnv: without WithCore, REALLOC_CORE picks the core;
// unknown names fail the constructor; a core that cannot run the
// requested variant silently falls back to the reference core; and an
// explicit WithCore always wins over the environment.
func TestReallocCoreEnv(t *testing.T) {
	t.Setenv("REALLOC_CORE", "fcs")
	r, err := realloc.New()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Core(); got != realloc.CoreFCS {
		t.Errorf("REALLOC_CORE=fcs New().Core() = %v", got)
	}
	s, err := realloc.NewSharded(realloc.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Core(); got != realloc.CoreFCS {
		t.Errorf("REALLOC_CORE=fcs NewSharded().Core() = %v", got)
	}
	// Variant fallback: the env core has no deamortized path, so the
	// structure stays on the reference core rather than failing.
	r, err = realloc.New(realloc.WithVariant(realloc.Deamortized))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Core(); got != realloc.CorePODS14 {
		t.Errorf("REALLOC_CORE=fcs + Deamortized → Core() = %v, want fallback to pods14", got)
	}
	// Explicit option beats the environment.
	r, err = realloc.New(realloc.WithCore(realloc.CorePODS14))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Core(); got != realloc.CorePODS14 {
		t.Errorf("WithCore(pods14) under REALLOC_CORE=fcs → Core() = %v", got)
	}

	for _, name := range []string{"bogus", "auto"} {
		t.Setenv("REALLOC_CORE", name)
		want := `REALLOC_CORE: unknown core "` + name + `" (valid: pods14, fcs)`
		if _, err := realloc.New(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("REALLOC_CORE=%s New() error = %v, want %q", name, err, want)
		}
		if _, err := realloc.NewSharded(realloc.WithShards(2)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("REALLOC_CORE=%s NewSharded() error = %v, want %q", name, err, want)
		}
	}
}

// TestShardedCrossCoreEquivalence drives the same concurrent workload
// into a sharded reallocator per core and checks, per core, that the
// final externally observable state matches the sequential reference
// model, that every shard obeys its own footprint bound, and that the
// full invariant sweep (including the lock-free mirror cross-check)
// passes. Run under -race this doubles as the per-core data-race check
// for the COW router and the seqlocked mirrors.
func TestShardedCrossCoreEquivalence(t *testing.T) {
	const (
		shards  = 4
		workers = 8
		perW    = 600
		eps     = 0.25
	)
	for _, core := range coresUnderTest {
		t.Run(core.String(), func(t *testing.T) {
			s, err := realloc.NewSharded(
				realloc.WithShards(shards),
				realloc.WithCore(core),
				realloc.WithEpsilon(eps),
				realloc.WithMetrics(),
			)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					base := int64(w) * 10_000
					for i := int64(1); i <= perW; i++ {
						id := base + i
						size := (id*2654435761)%96 + 1
						if err := s.Insert(id, size); err != nil {
							t.Errorf("worker %d: insert(%d): %v", w, id, err)
							return
						}
						if i%3 == 0 {
							if err := s.Delete(id); err != nil {
								t.Errorf("worker %d: delete(%d): %v", w, id, err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}

			// Sequential reference model of the same per-worker streams.
			wantLen, wantVol := 0, int64(0)
			for w := 0; w < workers; w++ {
				base := int64(w) * 10_000
				for i := int64(1); i <= perW; i++ {
					if i%3 == 0 {
						continue
					}
					id := base + i
					wantLen++
					wantVol += (id*2654435761)%96 + 1
				}
			}
			if s.Len() != wantLen || s.Volume() != wantVol {
				t.Fatalf("%v: len %d/%d, vol %d/%d", core, s.Len(), wantLen, s.Volume(), wantVol)
			}
			for i := 0; i < shards; i++ {
				v, f := s.ShardVolume(i), s.ShardFootprint(i)
				if v > 0 && float64(f) > (1+eps)*float64(v)+float64(s.Delta())+64 {
					t.Errorf("%v: shard %d footprint %d over budget for volume %d", core, i, f, v)
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if st, ok := s.Stats(); !ok || st.Inserts == 0 {
				t.Fatalf("%v: stats missing (%v)", core, ok)
			}
		})
	}
}
