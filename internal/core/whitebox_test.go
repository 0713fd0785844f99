package core

import (
	"slices"
	"testing"

	"realloc/internal/addrspace"
	"realloc/internal/trace"
)

// TestBoundaryClass exercises the boundary computation on constructed
// buffer contents.
func TestBoundaryClass(t *testing.T) {
	r := MustNew(Config{Epsilon: 1, EpsPrime: 0.5, Variant: Amortized})
	// Build regions for classes 0..3 via inserts.
	for i, size := range []int64{1, 2, 4, 8} {
		if err := r.Insert(ID(i+1), size); err != nil {
			t.Fatal(err)
		}
	}
	// With empty buffers, the boundary is the trigger class itself.
	for c := 0; c <= 3; c++ {
		if b := r.boundaryClass(c); b != c {
			t.Fatalf("empty buffers: boundary(%d) = %d", c, b)
		}
	}
	// Put a class-0 item into the class-3 buffer (by hand, mirroring a
	// buffered insert) and the boundary must drop to 0 for any trigger.
	idx, ok := r.regionIndex(3)
	if !ok {
		t.Fatal("no class-3 region")
	}
	reg := r.regions[idx]
	reg.items = append(reg.items, bufItem{id: 0, size: 1, class: 0})
	reg.bufFill++
	if b := r.boundaryClass(3); b != 0 {
		t.Fatalf("boundary with class-0 item in class-3 buffer = %d", b)
	}
	reg.items = reg.items[:0]
	reg.bufFill = 0
	// A class-2 item sitting in the class-2 buffer does NOT constrain a
	// boundary above it: buffers below b are simply not flushed.
	idx2, _ := r.regionIndex(2)
	reg2 := r.regions[idx2]
	reg2.items = append(reg2.items, bufItem{id: 0, size: 4, class: 2})
	reg2.bufFill += 4
	if b := r.boundaryClass(3); b != 3 {
		t.Fatalf("boundary = %d, want 3 (class-2 buffer is below it)", b)
	}
	// A class-2 item in the class-3 buffer pulls the boundary down to 2.
	reg.items = append(reg.items, bufItem{id: 0, size: 4, class: 2})
	reg.bufFill += 4
	if b := r.boundaryClass(3); b != 2 {
		t.Fatalf("boundary = %d, want 2", b)
	}
	// The trigger class caps the boundary from above.
	if b := r.boundaryClass(1); b != 1 {
		t.Fatalf("boundary = %d, want 1", b)
	}
}

// TestComputeLayout verifies the rebuilt suffix geometry.
func TestComputeLayout(t *testing.T) {
	r := MustNew(Config{Epsilon: 1, EpsPrime: 0.5, Variant: Amortized})
	sizes := map[int]int64{0: 3, 2: 10, 4: 20} // per-class volumes
	for c, v := range sizes {
		r.volByClass[c] = v
	}
	r.vol = 33
	lp := r.computeLayout(0)
	if lp.suffixStart != 0 {
		t.Fatalf("suffix start = %d", lp.suffixStart)
	}
	if len(lp.newRegions) != 3 {
		t.Fatalf("regions = %d", len(lp.newRegions))
	}
	classes := []int{0, 2, 4}
	pos := int64(0)
	for i, reg := range lp.newRegions {
		if reg.class != classes[i] {
			t.Fatalf("region %d class %d", i, reg.class)
		}
		if reg.payStart != pos {
			t.Fatalf("region %d starts at %d, want %d", i, reg.payStart, pos)
		}
		if reg.paySize != sizes[reg.class] {
			t.Fatalf("region %d payload %d", i, reg.paySize)
		}
		if reg.bufSize != sizes[reg.class]/2 { // eps' = 1/2
			t.Fatalf("region %d buffer %d", i, reg.bufSize)
		}
		pos = reg.end()
	}
	if lp.newEnd != pos {
		t.Fatalf("newEnd = %d, want %d", lp.newEnd, pos)
	}
	// Boundary above some classes: suffix starts after the untouched
	// prefix.
	r.regions = []*region{{class: 0, payStart: 0, paySize: 3, bufSize: 1}}
	lp = r.computeLayout(2)
	if lp.flushIdx != 1 || lp.suffixStart != 4 {
		t.Fatalf("flushIdx=%d suffixStart=%d", lp.flushIdx, lp.suffixStart)
	}
}

// objects maps every placed object's id to its record, read from the
// substrate's tagged index entries.
func (r *Reallocator) objects() map[ID]*object {
	m := make(map[ID]*object)
	r.space.ForEachTagged(func(id ID, _ addrspace.Extent, tag int32) {
		m[id] = r.recs.at(tag)
	})
	return m
}

// flushMoveCounter counts each object's moves within the current flush.
// At KFlushStart, before any move, it reads which objects sit in a
// buffer from their records.
type flushMoveCounter struct {
	r        *Reallocator
	inFlush  bool
	buffered map[ID]bool
	moves    map[ID]int
	// most is the largest per-flush move count of any object, by whether
	// the object started the flush in a buffer.
	most map[bool]int
}

func (c *flushMoveCounter) Record(e trace.Event) {
	switch e.Kind {
	case trace.KFlushStart:
		c.inFlush = true
		clear(c.moves)
		clear(c.buffered)
		for id, o := range c.r.objects() {
			if c.r.recs.place(o.tag) == inBuffer {
				c.buffered[id] = true
			}
		}
	case trace.KMove:
		if c.inFlush {
			id := ID(e.ID)
			c.moves[id]++
			b := c.buffered[id]
			c.most[b] = max(c.most[b], c.moves[id])
		}
	case trace.KFlushEnd:
		c.inFlush = false
	}
}

// TestFlushMovesObjectsAtMostTwice checks the schedule bound: within one
// flush no object moves more than twice. In the Amortized variant only
// objects that began the flush in a buffer move twice (out to the
// overflow segment and back down); the one-sweep schedule moves every
// payload survivor at most once.
func TestFlushMovesObjectsAtMostTwice(t *testing.T) {
	for _, v := range []Variant{Amortized, Checkpointed} {
		t.Run(v.String(), func(t *testing.T) {
			c := &flushMoveCounter{buffered: map[ID]bool{}, moves: map[ID]int{}, most: map[bool]int{}}
			r := MustNew(Config{Epsilon: 0.5, Variant: v, Recorder: c, Paranoid: true})
			c.r = r
			// Dense mixed workload to force several flushes.
			id := ID(1)
			for i := 0; i < 400; i++ {
				size := int64(1 + i%40)
				if err := r.Insert(id, size); err != nil {
					t.Fatal(err)
				}
				id++
				if i%3 == 2 {
					if err := r.Delete(id - 2); err != nil {
						t.Fatal(err)
					}
				}
			}
			if r.Flushes() == 0 || c.most[false] == 0 {
				t.Fatalf("%d flushes moved payload objects at most %d times: workload too weak", r.Flushes(), c.most[false])
			}
			if most := max(c.most[false], c.most[true]); most > 2 {
				t.Fatalf("an object moved %d times in one flush", most)
			}
			if v == Amortized && c.most[false] > 1 {
				t.Fatalf("an object outside the buffers moved %d times in one flush", c.most[false])
			}
		})
	}
}

// TestSweepPlan: the Section 2 sweep moves a run of right-movers last
// first, skips an object already at its slot, moves left-movers in
// address order, and panics on a slot below its predecessor's end rather
// than plan a move that would overwrite payload bytes.
func TestSweepPlan(t *testing.T) {
	payload := []flushObj{
		{id: 1, size: 4, start: 0, slot: 2, rank: 0},   // right
		{id: 2, size: 4, start: 4, slot: 6, rank: 1},   // right
		{id: 3, size: 4, start: 10, slot: 10, rank: 2}, // at its slot
		{id: 4, size: 4, start: 20, slot: 14, rank: 3}, // left
		{id: 5, size: 4, start: 26, slot: 18, rank: 4}, // left
		{id: 6, size: 4, start: 30, slot: 32, rank: 5}, // right
		{id: 7, size: 4, start: 34, slot: 40, rank: 6}, // right, ends the list
	}
	want := []addrspace.Relocation{
		{ID: 2, To: 6, Ref: 1}, {ID: 1, To: 2, Ref: 0},
		{ID: 4, To: 14, Ref: 3}, {ID: 5, To: 18, Ref: 4},
		{ID: 7, To: 40, Ref: 6}, {ID: 6, To: 32, Ref: 5},
	}
	head := addrspace.Relocation{ID: 9, To: 99, Ref: 9}
	got := sweepPlan([]addrspace.Relocation{head}, payload)
	if !slices.Equal(got, append([]addrspace.Relocation{head}, want...)) {
		t.Fatalf("sweep plan = %v, want %v after %v", got[1:], want, head)
	}

	// Object 2's slot starts inside object 1's: a desynced layout.
	payload[1].slot = 5
	defer func() {
		if recover() == nil {
			t.Fatal("sweep accepted a slot below its predecessor's end")
		}
	}()
	sweepPlan(nil, payload)
}

// TestCheckpointedStrictness: the checkpointed variant runs on a strict
// substrate; reaching the end of a heavy workload without errors proves
// every move target was disjoint from its source and from freed space
// (Lemma 3.2 operationally).
func TestCheckpointedStrictness(t *testing.T) {
	r := MustNew(Config{Epsilon: 0.25, Variant: Checkpointed, Paranoid: true, TrackCells: true})
	if !r.Space().Options().StrictNonOverlap {
		t.Fatal("checkpointed variant must use a strict substrate")
	}
	if !r.Space().Options().CheckpointRule {
		t.Fatal("checkpointed variant must enforce the checkpoint rule")
	}
	id := ID(1)
	for i := 0; i < 600; i++ {
		if err := r.Insert(id, int64(1+(i*7)%100)); err != nil {
			t.Fatal(err)
		}
		id++
		if i%2 == 1 {
			if err := r.Delete(id - 2); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCheckpointsPerFlushBound asserts Lemma 3.3's shape with explicit
// constants: checkpoints per flush stay within O(1/eps').
func TestCheckpointsPerFlushBound(t *testing.T) {
	for _, eps := range []float64{0.5, 0.2} {
		m := trace.NewMetrics()
		r := MustNew(Config{Epsilon: eps, Variant: Checkpointed, Recorder: m})
		id := ID(1)
		for i := 0; i < 3000; i++ {
			if err := r.Insert(id, int64(1+(i*13)%64)); err != nil {
				t.Fatal(err)
			}
			id++
			if i%2 == 1 {
				if err := r.Delete(id - 2); err != nil {
					t.Fatal(err)
				}
			}
		}
		if m.Flushes == 0 {
			t.Fatal("no flushes happened")
		}
		bound := 6/r.EpsPrime() + 8
		if float64(m.MaxCheckpointsFlush) > bound {
			t.Fatalf("eps=%v: %d checkpoints in one flush, bound %v", eps, m.MaxCheckpointsFlush, bound)
		}
	}
}

// TestDeamortizedCheckpointsPerOp: deamortization also bounds the
// checkpoints any single request blocks on at O(1/eps') (Section 3.3's
// "worst-case O(1/ε) checkpoints per operation").
func TestDeamortizedCheckpointsPerOp(t *testing.T) {
	m := trace.NewMetrics()
	r := MustNew(Config{Epsilon: 0.25, Variant: Deamortized, Recorder: m})
	id := ID(1)
	for i := 0; i < 4000; i++ {
		if err := r.Insert(id, int64(1+(i*11)%64)); err != nil {
			t.Fatal(err)
		}
		id++
		if i%2 == 1 {
			if err := r.Delete(id - 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m.CheckpointsTotal == 0 {
		t.Fatal("no checkpoints at all")
	}
	bound := int64(3/r.EpsPrime()) + 8
	if m.MaxCheckpointsPerOp > bound {
		t.Fatalf("one request blocked on %d checkpoints, bound %d", m.MaxCheckpointsPerOp, bound)
	}
}

// TestAmortizedNeverCheckpoints: the Section 2 variant runs on RAM rules
// and must never emit checkpoint events.
func TestAmortizedNeverCheckpoints(t *testing.T) {
	m := trace.NewMetrics()
	r := MustNew(Config{Epsilon: 0.25, Variant: Amortized, Recorder: m})
	for i := 1; i <= 500; i++ {
		if err := r.Insert(ID(i), int64(1+i%30)); err != nil {
			t.Fatal(err)
		}
	}
	if m.CheckpointsTotal != 0 {
		t.Fatalf("amortized variant checkpointed %d times", m.CheckpointsTotal)
	}
}

// TestLayoutAccessor checks the SegmentInfo view against inserted state.
func TestLayoutAccessor(t *testing.T) {
	r := MustNew(Config{Epsilon: 1, EpsPrime: 0.5, Variant: Deamortized})
	if err := r.Insert(1, 4); err != nil { // class 2
		t.Fatal(err)
	}
	if err := r.Insert(2, 16); err != nil { // class 4
		t.Fatal(err)
	}
	segs := r.Layout()
	if len(segs) != 3 { // two classes + tail
		t.Fatalf("segments = %d", len(segs))
	}
	if segs[0].Class != 2 || segs[1].Class != 4 {
		t.Fatalf("classes: %+v", segs)
	}
	if !segs[2].Tail {
		t.Fatal("missing tail segment")
	}
	if segs[0].PaySize != 4 || segs[1].PaySize != 16 {
		t.Fatalf("payload sizes: %+v", segs)
	}
	if segs[1].PayStart != segs[0].BufStart+segs[0].BufSize {
		t.Fatal("regions not contiguous in layout view")
	}
}

// TestTriggerExtraRealloc (Section 3.2): a flush-triggering insert is
// placed once and then reallocated by its own flush — exactly the "+1
// reallocation for the flush-triggering item" of the analysis.
func TestTriggerExtraRealloc(t *testing.T) {
	log := &trace.Log{}
	r := MustNew(Config{Epsilon: 0.5, Variant: Checkpointed, Recorder: log, Paranoid: true})
	// Fill buffers until an insert triggers a flush.
	id := ID(1)
	var trigger ID
	for i := 0; i < 1000 && trigger == 0; i++ {
		before := r.Flushes()
		if err := r.Insert(id, 8); err != nil {
			t.Fatal(err)
		}
		if r.Flushes() > before {
			trigger = id
		}
		id++
	}
	if trigger == 0 {
		t.Fatal("no flush was triggered")
	}
	moves := log.MovesByID()[int64(trigger)]
	if moves < 1 {
		t.Fatalf("trigger object moved %d times, want >= 1 (evacuation)", moves)
	}
	if moves > 2 {
		t.Fatalf("trigger object moved %d times, want <= 2", moves)
	}
}

// TestDeleteOfBufferedObject: deleting a buffered object converts its
// entry to a dummy in place, consuming no extra buffer space.
func TestDeleteOfBufferedObject(t *testing.T) {
	r := MustNew(Config{Epsilon: 1, EpsPrime: 0.5, Variant: Amortized, Paranoid: true})
	// Class-3 region with a buffer big enough for a small object.
	if err := r.Insert(1, 8); err != nil {
		t.Fatal(err)
	}
	// This insert lands in the class-3 buffer (no class-0 region exists).
	if err := r.Insert(2, 2); err != nil {
		t.Fatal(err)
	}
	obj := r.objects()[2]
	if p := r.recs.place(obj.tag); p != inBuffer {
		t.Fatalf("object 2 not buffered: %v", p)
	}
	idx, _ := r.regionIndex(obj.bufClass)
	fillBefore := r.regions[idx].bufFill
	if err := r.Delete(2); err != nil {
		t.Fatal(err)
	}
	if got := r.regions[idx].bufFill; got != fillBefore {
		t.Fatalf("buffer fill changed %d -> %d on in-place dummy conversion", fillBefore, got)
	}
	if r.regions[idx].items[0].id != 1 && r.regions[idx].items[0].id != 0 {
		t.Fatal("buffer entry not dummied")
	}
}

// TestWorkQuota sanity-checks the deamortized work budget arithmetic.
func TestWorkQuota(t *testing.T) {
	r := MustNew(Config{Epsilon: 0.6, EpsPrime: 0.1, Variant: Deamortized})
	if q := r.workQuota(10); q != 400 { // 4/0.1 * 10
		t.Fatalf("quota = %d", q)
	}
	if q := r.workQuota(1 << 62); q <= 0 {
		t.Fatalf("quota overflowed: %d", q)
	}
}

// TestDeamortizedLogAnnihilation: insert+delete of the same object during
// one flush must cancel without ever entering the structure.
func TestDeamortizedLogAnnihilation(t *testing.T) {
	r, trigger := deamortizedMidFlush(t)
	_ = trigger
	if r.plan == nil {
		t.Fatal("expected an active flush")
	}
	// Insert and immediately delete while the flush is active. Use tiny
	// sizes so their work quota cannot finish the flush.
	if err := r.Insert(9001, 1); err != nil {
		t.Fatal(err)
	}
	if r.plan != nil {
		if o := r.objects()[9001]; o == nil || r.recs.place(o.tag) != inLog {
			t.Fatal("mid-flush insert should be logged")
		}
		if err := r.Delete(9001); err != nil {
			t.Fatal(err)
		}
		if r.objects()[9001] != nil {
			t.Fatal("annihilated object still present")
		}
		if r.Has(9001) {
			t.Fatal("Has(annihilated)")
		}
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeamortizedDeferredDelete: deleting a pre-flush object mid-flush
// keeps it active (the paper's definition) until the drain applies it.
func TestDeamortizedDeferredDelete(t *testing.T) {
	r, _ := deamortizedMidFlush(t)
	if r.plan == nil {
		t.Skip("flush completed too quickly for this construction")
	}
	// Find some object that predates the flush.
	var victim ID
	for id, o := range r.objects() {
		if r.recs.place(o.tag) == inPayload && !o.deletePending {
			victim = id
			break
		}
	}
	if victim == 0 {
		t.Fatal("no payload object found")
	}
	volBefore := r.Volume()
	if err := r.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if r.plan != nil {
		if r.Volume() != volBefore {
			t.Fatal("volume dropped before the delete completed")
		}
		if r.Has(victim) {
			t.Fatal("deletePending object should not report as live")
		}
		if err := r.Delete(victim); err == nil {
			t.Fatal("double delete of pending object accepted")
		}
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if r.Volume() != volBefore-r.objsSizeOfDeleted(victim) {
		// After drain the volume reflects the delete; objsSizeOfDeleted
		// returns the recorded size (helper below).
		t.Fatalf("volume %d after drain", r.Volume())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// objsSizeOfDeleted is a test helper: size of a deleted object is no
// longer recorded, so remember it via the trace-free path. It returns the
// size the test expects (deduced from construction: all inserts below use
// size 6 for payload objects).
func (r *Reallocator) objsSizeOfDeleted(ID) int64 { return 6 }

// deamortizedMidFlush builds a deamortized reallocator paused in the
// middle of a flush.
func deamortizedMidFlush(t *testing.T) (*Reallocator, ID) {
	t.Helper()
	r := MustNew(Config{Epsilon: 0.3, EpsPrime: 0.05, Variant: Deamortized, Paranoid: true, TrackCells: true})
	id := ID(1)
	// Insert uniform objects until a flush starts and stays active.
	for i := 0; i < 20000; i++ {
		if err := r.Insert(id, 6); err != nil {
			t.Fatal(err)
		}
		id++
		if r.plan != nil {
			return r, id - 1
		}
	}
	t.Fatal("could not construct an active flush")
	return nil, 0
}

// TestDeamortizedNewMaxClassMidFlush: a record-breaking object arriving
// during a flush goes through the log and opens its region at drain time.
func TestDeamortizedNewMaxClassMidFlush(t *testing.T) {
	r, _ := deamortizedMidFlush(t)
	if r.plan == nil {
		t.Skip("flush completed too quickly")
	}
	huge := int64(100000)
	if err := r.Insert(777777, huge); err != nil {
		t.Fatal(err)
	}
	ext, ok := r.Extent(777777)
	if !ok || ext.Size != huge {
		t.Fatalf("huge object extent: %v %v", ext, ok)
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if r.Delta() != huge {
		t.Fatalf("delta = %d", r.Delta())
	}
	// The object survives the next full flush cycle too.
	for i := 0; i < 500; i++ {
		if err := r.Insert(ID(800000+i), 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if !r.Has(777777) {
		t.Fatal("huge object lost")
	}
}

// TestLogDepth: mid-flush requests queue in the log and drain to zero.
func TestLogDepth(t *testing.T) {
	r, _ := deamortizedMidFlush(t)
	if r.plan == nil {
		t.Skip("flush completed too quickly")
	}
	if err := r.Insert(50001, 1); err != nil {
		t.Fatal(err)
	}
	if r.plan != nil && r.LogDepth() == 0 {
		t.Fatal("mid-flush insert not logged")
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if r.LogDepth() != 0 {
		t.Fatalf("log depth %d after drain", r.LogDepth())
	}
}

// TestDirtyPathsEventuallyClean: stress the deamortized variant with a
// volatile workload and verify the structure returns to a canonical state
// after draining.
func TestDirtyPathsEventuallyClean(t *testing.T) {
	r := MustNew(Config{Epsilon: 0.5, EpsPrime: 0.05, Variant: Deamortized, Paranoid: true})
	id := ID(1)
	for round := 0; round < 30; round++ {
		for i := 0; i < 100; i++ {
			if err := r.Insert(id, int64(1+int(id)%120)); err != nil {
				t.Fatal(err)
			}
			id++
		}
		for del := id - 100; del < id-50; del++ {
			if err := r.Delete(del); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
