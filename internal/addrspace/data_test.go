package addrspace

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"realloc/internal/arena"
)

func newDataSpace(t *testing.T, opts Options, kind arena.Kind) *Space {
	t.Helper()
	b, err := arena.New(kind)
	if err != nil {
		t.Fatal(err)
	}
	opts.Data = b
	return New(opts)
}

// pattern fills a deterministic per-object byte pattern.
func pattern(id ID, size int64) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(int64(id)*31 + int64(i)*7)
	}
	return p
}

// checkPayloads verifies every object's bytes still match its pattern.
func checkPayloads(t *testing.T, s *Space, live map[ID]int64) {
	t.Helper()
	for id, size := range live {
		got := make([]byte, size)
		if _, err := s.ReadData(id, got); err != nil {
			t.Fatalf("ReadData(%d): %v", id, err)
		}
		if want := pattern(id, size); !bytes.Equal(got, want) {
			t.Fatalf("object %d payload corrupted: got %v want %v", id, got[:min(8, len(got))], want[:min(8, len(want))])
		}
	}
}

// TestPayloadAccess covers the WriteData/ReadData/DataBytes contract on
// real, metered, and absent backends.
func TestPayloadAccess(t *testing.T) {
	s := newDataSpace(t, RAM(), arena.Heap)
	if err := s.Place(1, Extent{Start: 5, Size: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteData(1, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteData(1, []byte("abcde")); err == nil {
		t.Fatal("oversized write accepted")
	}
	if err := s.WriteData(9, []byte("x")); err == nil {
		t.Fatal("write to unknown object accepted")
	}
	buf := make([]byte, 8)
	n, err := s.ReadData(1, buf)
	if err != nil || n != 4 || string(buf[:4]) != "abcd" {
		t.Fatalf("ReadData = %d, %v, %q", n, err, buf[:4])
	}
	if b, ok := s.DataBytes(1); !ok || string(b) != "abcd" {
		t.Fatalf("DataBytes = %q, %v", b, ok)
	}

	m := newDataSpace(t, RAM(), arena.Metered)
	if err := m.Place(1, Extent{Start: 0, Size: 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteData(1, []byte("ab")); err != ErrNoData {
		t.Fatalf("metered WriteData err = %v, want ErrNoData", err)
	}
	if _, ok := m.DataBytes(1); ok {
		t.Fatal("metered DataBytes succeeded")
	}

	bare := New(RAM())
	if err := bare.Place(1, Extent{Start: 0, Size: 2}); err != nil {
		t.Fatal(err)
	}
	if err := bare.WriteData(1, []byte("ab")); err != ErrNoData {
		t.Fatalf("bare WriteData err = %v, want ErrNoData", err)
	}
}

// TestMoveCarriesPayload: per-move relocation (including an overlapping
// self-move in RAM mode) carries bytes.
func TestMoveCarriesPayload(t *testing.T) {
	s := newDataSpace(t, RAM(), arena.Heap)
	if err := s.Place(7, Extent{Start: 10, Size: 6}); err != nil {
		t.Fatal(err)
	}
	want := pattern(7, 6)
	if err := s.WriteData(7, want); err != nil {
		t.Fatal(err)
	}
	for _, to := range []int64{40, 38, 39, 0} { // disjoint, overlap, overlap, far
		if err := s.Move(7, to); err != nil {
			t.Fatalf("Move to %d: %v", to, err)
		}
		got, _ := s.DataBytes(7)
		if !bytes.Equal(got, want) {
			t.Fatalf("after move to %d: payload %v, want %v", to, got, want)
		}
	}
}

// planRunner executes a whole plan, bound to the index suffix from
// address from, through one of the batched executors.
type planRunner struct {
	name string
	run  func(s *Space, plan []Relocation, from int64) error
}

// finalOrderOf lists plan's refs by their objects' final starts: the
// order flush schedules hand the executors.
func finalOrderOf(plan []Relocation) []int32 {
	final := map[int32]int64{}
	var refs []int32
	for _, mv := range plan {
		if _, ok := final[mv.Ref]; !ok {
			refs = append(refs, mv.Ref)
		}
		final[mv.Ref] = mv.To
	}
	slices.SortFunc(refs, func(a, b int32) int { return cmp.Compare(final[a], final[b]) })
	return refs
}

// planRunners covers ApplyMoves and the session's bulk, batched-chunk and
// observed-chunk paths, with and without a supplied final order.
func planRunners() []planRunner {
	emit := func(MoveResult) {}
	chunks := func(budget int64, emit func(MoveResult), ordered bool) func(s *Space, plan []Relocation, from int64) error {
		return func(s *Space, plan []Relocation, from int64) error {
			var order []int32
			if ordered {
				order = finalOrderOf(plan)
			}
			ms, err := s.BeginMoves(plan, from, order)
			if err != nil {
				return err
			}
			for !ms.Done() {
				if _, _, err := ms.Advance(budget, emit); err != nil {
					return err
				}
			}
			return ms.Commit()
		}
	}
	return []planRunner{
		{"applyMoves", func(s *Space, plan []Relocation, from int64) error {
			_, _, err := s.ApplyMoves(plan, from, nil, 1<<40, nil)
			return err
		}},
		{"applyMovesEmit", func(s *Space, plan []Relocation, from int64) error {
			_, _, err := s.ApplyMoves(plan, from, nil, 1<<40, emit)
			return err
		}},
		{"applyMovesOrdered", func(s *Space, plan []Relocation, from int64) error {
			_, _, err := s.ApplyMoves(plan, from, finalOrderOf(plan), 1<<40, emit)
			return err
		}},
		{"sessionBulk", chunks(1<<40, nil, false)},
		{"sessionBulkOrdered", chunks(1<<40, nil, true)},
		{"sessionChunks", chunks(3, nil, false)},
		{"sessionChunksEmit", chunks(2, emit, false)},
	}
}

// TestBulkAndSessionCarryPayload drives the same randomized plan
// through ApplyMoves, a single-chunk session, and a many-chunk session
// (both with and without an emitter), checking payload integrity and
// identical BytesMoved after each.
func TestBulkAndSessionCarryPayload(t *testing.T) {
	for _, r := range planRunners() {
		t.Run(r.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			s := newDataSpace(t, RAM(), arena.Heap)
			live := map[ID]int64{}
			next := int64(0)
			for id := ID(1); id <= 12; id++ {
				size := 1 + rng.Int63n(5)
				if err := s.Place(id, Extent{Start: next, Size: size}); err != nil {
					t.Fatal(err)
				}
				if err := s.WriteData(id, pattern(id, size)); err != nil {
					t.Fatal(err)
				}
				live[id] = size
				next += size + rng.Int63n(3)
			}
			// A compaction-style plan: park everything past the frontier,
			// then pack leftward — the same two-hop shape flush schedules
			// produce, exercising multi-step refs and overlap ordering.
			overflow := next + 16
			var plan []Relocation
			park := overflow
			for id := ID(1); id <= 12; id++ {
				plan = append(plan, Relocation{ID: id, To: park})
				park += live[id]
			}
			pack := int64(0)
			for id := ID(1); id <= 12; id++ {
				plan = append(plan, Relocation{ID: id, To: pack})
				pack += live[id]
			}
			if err := r.run(s, ranked(s, 0, plan), 0); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			if err := s.Verify(); err != nil {
				t.Fatal(err)
			}
			checkPayloads(t, s, live)
			// Every runner applies the identical plan: identical volume.
			var wantMoved int64
			for _, size := range live {
				wantMoved += 2 * size
			}
			if got := s.Data().Counters().BytesMoved; got != wantMoved {
				t.Fatalf("BytesMoved = %d, want %d", got, wantMoved)
			}
		})
	}
}

// TestMeteredMatchesHeapCounters: the same op sequence produces the
// same BytesMoved on a metered and a heap space.
func TestMeteredMatchesHeapCounters(t *testing.T) {
	drive := func(s *Space) {
		rng := rand.New(rand.NewSource(7))
		next := int64(0)
		for id := ID(1); id <= 40; id++ {
			size := 1 + rng.Int63n(9)
			if err := s.Place(id, Extent{Start: next, Size: size}); err != nil {
				panic(err)
			}
			next += size
		}
		for i := 0; i < 200; i++ {
			id := ID(1 + rng.Intn(40))
			ext, _ := s.Extent(id)
			if err := s.Move(id, next); err != nil {
				panic(fmt.Sprintf("move %d: %v", id, err))
			}
			next += ext.Size
		}
	}
	met := newDataSpace(t, RAM(), arena.Metered)
	hp := newDataSpace(t, RAM(), arena.Heap)
	drive(met)
	drive(hp)
	mc, hc := met.Data().Counters(), hp.Data().Counters()
	if mc.BytesMoved != hc.BytesMoved || mc.Copies != hc.Copies {
		t.Fatalf("metered %+v vs heap %+v", mc, hc)
	}
	if mc.BytesMoved == 0 {
		t.Fatal("no moves recorded")
	}
}

// TestMoveNanos: the batched executors time each move loop as one chunk
// on a real backend — an ApplyMoves batch, and every chunk of a
// multi-chunk session on both the observed and unobserved paths — while
// per-move Move and spaces without real bytes never advance the counter.
func TestMoveNanos(t *testing.T) {
	const n, size = 8, 1 << 16 // large copies: every loop takes measurable time
	// park builds a space over data (nil: index-only) holding n
	// contiguous objects, and a plan moving each past the frontier, bound
	// to the whole index.
	park := func(t *testing.T, data arena.Backend) (*Space, []Relocation) {
		opts := RAM()
		opts.Data = data
		s := New(opts)
		var plan []Relocation
		for id := ID(1); id <= n; id++ {
			if err := s.Place(id, Extent{Start: int64(id-1) * size, Size: size}); err != nil {
				t.Fatal(err)
			}
			plan = append(plan, Relocation{ID: id, To: int64(n+id) * size})
		}
		return s, ranked(s, 0, plan)
	}
	backend := func(t *testing.T, kind arena.Kind) arena.Backend {
		b, err := arena.New(kind)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	emit := func(MoveResult) {}
	// chunked runs plan one move per Advance and reports whether every
	// chunk advanced MoveNanos.
	chunked := func(t *testing.T, s *Space, plan []Relocation, emit func(MoveResult)) (everyChunk bool) {
		ms, err := s.BeginMoves(plan, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		everyChunk = true
		chunks := 0
		for !ms.Done() {
			before := s.MoveNanos()
			if _, _, err := ms.Advance(size, emit); err != nil {
				t.Fatal(err)
			}
			chunks++
			everyChunk = everyChunk && s.MoveNanos() > before
		}
		if chunks != len(plan) {
			t.Fatalf("session ran %d chunks, want %d", chunks, len(plan))
		}
		if err := ms.Commit(); err != nil {
			t.Fatal(err)
		}
		return everyChunk
	}

	t.Run("applyMoves", func(t *testing.T) {
		s, plan := park(t, backend(t, arena.Heap))
		if _, _, err := s.ApplyMoves(plan, 0, nil, 1<<40, nil); err != nil {
			t.Fatal(err)
		}
		if s.MoveNanos() <= 0 {
			t.Fatalf("heap ApplyMoves left MoveNanos at %d", s.MoveNanos())
		}
	})
	for _, tc := range []struct {
		name string
		emit func(MoveResult)
	}{{"sessionChunks", nil}, {"sessionChunksEmit", emit}} {
		t.Run(tc.name, func(t *testing.T) {
			s, plan := park(t, backend(t, arena.Heap))
			if !chunked(t, s, plan, tc.emit) {
				t.Fatal("a session chunk on a heap space did not advance MoveNanos")
			}
		})
	}
	t.Run("moveUntimed", func(t *testing.T) {
		s, plan := park(t, backend(t, arena.Heap))
		if _, _, err := s.ApplyMoves(plan[:1], 0, nil, 1<<40, nil); err != nil {
			t.Fatal(err)
		}
		before := s.MoveNanos()
		for id := ID(2); id <= n; id++ {
			if err := s.Move(id, int64(n+id)*size); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.MoveNanos(); got != before {
			t.Fatalf("per-move Move changed MoveNanos %d -> %d", before, got)
		}
		if got, want := s.Data().Counters().BytesMoved, int64(n*size); got != want {
			t.Fatalf("BytesMoved = %d, want %d", got, want)
		}
	})
	for _, tc := range []struct {
		name string
		data arena.Backend
	}{{"metered", backend(t, arena.Metered)}, {"indexOnly", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			s, plan := park(t, tc.data)
			if _, _, err := s.ApplyMoves(plan[:n/2], 0, nil, 1<<40, nil); err != nil {
				t.Fatal(err)
			}
			chunked(t, s, ranked(s, 0, plan[n/2:]), nil)
			if got := s.MoveNanos(); got != 0 {
				t.Fatalf("MoveNanos = %d on a space without real bytes", got)
			}
		})
	}
}
