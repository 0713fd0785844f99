package core

import (
	"fmt"
	"testing"

	"realloc/internal/trace"
)

// benchFill pre-populates a reallocator with n uniform objects.
func benchFill(b *testing.B, variant Variant, n int) *Reallocator {
	b.Helper()
	r, err := New(Config{Epsilon: 0.25, Variant: variant, Recorder: trace.Null{}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := r.Insert(ID(i), int64(1+i%128)); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// BenchmarkInsertBuffered measures the insert fast path (buffer append, no
// flush) by giving every insert a fresh, huge structure to land in.
func BenchmarkInsertBuffered(b *testing.B) {
	r := benchFill(b, Amortized, 10000)
	id := ID(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Insert(id, 1); err != nil {
			b.Fatal(err)
		}
		id++
		if i%64 == 63 {
			// Keep the structure from growing unboundedly: delete the
			// batch (also exercising the dummy-record path).
			b.StopTimer()
			for d := id - 64; d < id; d++ {
				if err := r.Delete(d); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
	}
}

// BenchmarkFlush measures a full Section 2 flush of a structure with n
// objects: the cost of the move schedule end to end.
func BenchmarkFlush(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := benchFill(b, Amortized, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Force a flush by triggering the no-room path: a delete
				// whose dummy cannot fit anywhere is the cheapest trigger,
				// so alternate insert+delete of a fresh large object and
				// rely on periodic organic flushes instead. Simpler and
				// honest: run one sweep of inserts sized to fill buffers.
				before := r.Flushes()
				id := ID(1 << 30)
				for r.Flushes() == before {
					if err := r.Insert(id, 64); err != nil {
						b.Fatal(err)
					}
					id++
				}
				b.StopTimer()
				for d := ID(1 << 30); d < id; d++ {
					if err := r.Delete(d); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkBoundaryClass isolates the boundary-class scan.
func BenchmarkBoundaryClass(b *testing.B) {
	r := benchFill(b, Amortized, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.boundaryClass(0)
	}
}

// BenchmarkLayoutCompute isolates the suffix-geometry computation.
func BenchmarkLayoutCompute(b *testing.B) {
	r := benchFill(b, Amortized, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.computeLayout(0)
	}
}

// BenchmarkCheckInvariants measures the paranoid checker's cost (it runs
// after every request in tests).
func BenchmarkCheckInvariants(b *testing.B) {
	r := benchFill(b, Amortized, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
	}
}
