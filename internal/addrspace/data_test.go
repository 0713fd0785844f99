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
// address from, through one shape of move-session chunks.
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

// stayLastOrderOf is finalOrderOf with every object that ends where it
// started listed last: BeginMoves accepts such an object anywhere in the
// final order, since it keeps its index entry.
func stayLastOrderOf(s *Space, plan []Relocation) []int32 {
	final, id := map[int32]int64{}, map[int32]ID{}
	for _, mv := range plan {
		final[mv.Ref], id[mv.Ref] = mv.To, mv.ID
	}
	var stay, moved []int32
	for _, ref := range finalOrderOf(plan) {
		if ext, _ := s.Extent(id[ref]); final[ref] == ext.Start {
			stay = append(stay, ref)
		} else {
			moved = append(moved, ref)
		}
	}
	return append(moved, stay...)
}

// expectedEmits replays plan over s's current layout and returns the
// relocations a session must report, in plan order: every entry that
// changes its object's start.
func expectedEmits(s *Space, plan []Relocation) []MoveResult {
	cur := map[ID]Extent{}
	var out []MoveResult
	for _, mv := range plan {
		ext, ok := cur[mv.ID]
		if !ok {
			ext, _ = s.Extent(mv.ID)
		}
		if mv.To != ext.Start {
			out = append(out, MoveResult{ID: mv.ID, Size: ext.Size, From: ext.Start, To: mv.To})
			ext.Start = mv.To
		}
		cur[mv.ID] = ext
	}
	return out
}

// planRunners covers a session's whole-plan chunk and its partial
// chunks, each with and without an emitter. The applyMoves lanes apply
// the whole plan in exactly one Advance whose quota is the plan's own
// volume — the boundary of the whole-plan path — and fail if that call
// leaves the session open; applyMovesOrdered also checks that the
// emitter sees exactly the relocations the plan makes, in plan order.
// sessionBulkOrdered hands BeginMoves a final order that lists the
// objects ending where they started last, out of address order.
func planRunners() []planRunner {
	emit := func(MoveResult) {}
	chunks := func(budget int64, emit func(MoveResult)) func(s *Space, plan []Relocation, from int64) error {
		return func(s *Space, plan []Relocation, from int64) error {
			ms, err := begin(s, plan, from)
			if err != nil {
				return err
			}
			for !ms.Done() {
				if _, _, err := ms.Advance(budget, emit); err != nil {
					return err
				}
			}
			return nil
		}
	}
	oneCall := func(emit func(MoveResult)) func(s *Space, plan []Relocation, from int64) error {
		return func(s *Space, plan []Relocation, from int64) error {
			ms, err := begin(s, plan, from)
			if err != nil {
				return err
			}
			consumed, volume, err := ms.Advance(ms.total, emit)
			switch {
			case err != nil:
				return err
			case !ms.Done() || consumed != len(plan) || volume != ms.total:
				return fmt.Errorf("one Advance of quota %d consumed %d of %d entries, moving %d",
					ms.total, consumed, len(plan), volume)
			}
			return nil
		}
	}
	return []planRunner{
		{"applyMoves", oneCall(nil)},
		{"applyMovesEmit", oneCall(emit)},
		{"applyMovesOrdered", func(s *Space, plan []Relocation, from int64) error {
			want := expectedEmits(s, plan)
			var got []MoveResult
			if err := oneCall(func(m MoveResult) {
				got = append(got, MoveResult{ID: m.ID, Size: m.Size, From: m.From, To: m.To})
			})(s, plan, from); err != nil {
				return err
			}
			if !slices.Equal(got, want) {
				return fmt.Errorf("emitted %v, want %v", got, want)
			}
			return nil
		}},
		{"sessionBulk", chunks(1<<40, nil)},
		{"sessionBulkOrdered", func(s *Space, plan []Relocation, from int64) error {
			ms, err := s.BeginMoves(plan, from, stayLastOrderOf(s, plan))
			if err != nil {
				return err
			}
			_, _, err = ms.Advance(1<<40, nil)
			return err
		}},
		{"sessionChunks", chunks(3, nil)},
		{"sessionChunksEmit", chunks(2, emit)},
	}
}

// TestBulkAndSessionCarryPayload drives the same randomized plan
// through a single-chunk and a many-chunk session (both with and without
// an emitter), checking payload integrity and identical BytesMoved after
// each.
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

// TestEmitBeforeCopy pins the emit-before-copy rule: a session reports
// each move to its observer while the data layer still holds the pre-move
// image, so a durability hook snapshotting on a blocking move's
// checkpoint never captures that move's own write. Every object parks on
// fresh, zeroed space: at each emit the target must still read zero, and
// after the chunk the object must hold its payload there. The whole-plan
// chunk and observed partial chunks both run.
func TestEmitBeforeCopy(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int64
	}{{"wholePlan", 1 << 40}, {"chunks1", 1}, {"chunks7", 7}} {
		budget := tc.budget
		t.Run(tc.name, func(t *testing.T) {
			s := newDataSpace(t, Durable(), arena.Heap)
			live := map[ID]int64{}
			next := int64(0)
			for id := ID(1); id <= 10; id++ {
				size := int64(id%4 + 2)
				if err := s.Place(id, Extent{Start: next, Size: size}); err != nil {
					t.Fatal(err)
				}
				if err := s.WriteData(id, pattern(id, size)); err != nil {
					t.Fatal(err)
				}
				live[id] = size
				next += size
			}
			var plan []Relocation
			park := next + 8
			for id := ID(1); id <= 10; id++ {
				plan = append(plan, Relocation{ID: id, To: park})
				park += live[id]
			}
			s.Data().Ensure(park) // the parking space exists, zeroed
			sess, err := begin(s, ranked(s, 0, plan), 0)
			if err != nil {
				t.Fatal(err)
			}
			var emitted []ID
			emit := func(m MoveResult) {
				if b := s.Data().Bytes(m.To, m.Size); !bytes.Equal(b, make([]byte, m.Size)) {
					t.Fatalf("object %d's target %d holds %v at its emit: copied before the observer saw it", m.ID, m.To, b)
				}
				emitted = append(emitted, m.ID)
			}
			chunks := 0
			for !sess.Done() {
				emitted = emitted[:0]
				if _, _, err := sess.Advance(budget, emit); err != nil {
					t.Fatal(err)
				}
				chunks++
				for _, id := range emitted {
					ext, _ := s.Extent(id)
					if got, _ := s.DataBytes(id); ext.Start < next || !bytes.Equal(got, pattern(id, live[id])) {
						t.Fatalf("object %d at %v holds %v after its chunk", id, ext, got)
					}
				}
			}
			if (budget == 1<<40) != (chunks == 1) {
				t.Fatalf("budget %d ran %d chunks", budget, chunks)
			}
			checkPayloads(t, s, live)
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

// TestMoveNanos: a session times each move loop as one chunk on a real
// backend — a whole-plan chunk, and every chunk of a multi-chunk session
// on both the observed and unobserved paths — while per-move Move and
// spaces without real bytes never advance the counter.
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
	// whole runs plan as one whole-plan chunk.
	whole := func(t *testing.T, s *Space, plan []Relocation) {
		ms, err := begin(s, plan, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ms.Advance(1<<40, nil); err != nil {
			t.Fatal(err)
		}
	}
	// chunked runs plan one move per Advance and reports whether every
	// chunk advanced MoveNanos.
	chunked := func(t *testing.T, s *Space, plan []Relocation, emit func(MoveResult)) (everyChunk bool) {
		ms, err := begin(s, plan, 0)
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
		return everyChunk
	}

	t.Run("sessionBulk", func(t *testing.T) {
		s, plan := park(t, backend(t, arena.Heap))
		whole(t, s, plan)
		if s.MoveNanos() <= 0 {
			t.Fatalf("a heap whole-plan chunk left MoveNanos at %d", s.MoveNanos())
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
		whole(t, s, plan[:1])
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
			whole(t, s, plan[:n/2])
			chunked(t, s, ranked(s, 0, plan[n/2:]), nil)
			if got := s.MoveNanos(); got != 0 {
				t.Fatalf("MoveNanos = %d on a space without real bytes", got)
			}
		})
	}
}
