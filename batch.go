package realloc

import (
	"fmt"
	"sync"

	"realloc/internal/addrspace"
	"realloc/internal/telemetry"
)

// OpKind says what a batched Op does.
type OpKind uint8

const (
	// OpInsert services 〈InsertObject, ID, Size〉.
	OpInsert OpKind = iota
	// OpDelete services 〈DeleteObject, ID〉.
	OpDelete
)

// Op is one request of a Batch.
type Op struct {
	Kind OpKind
	ID   int64
	Size int64 // used by OpInsert only
}

// InsertOp builds the batched form of Insert(id, size).
func InsertOp(id, size int64) Op { return Op{Kind: OpInsert, ID: id, Size: size} }

// DeleteOp builds the batched form of Delete(id).
func DeleteOp(id int64) Op { return Op{Kind: OpDelete, ID: id} }

// Batch is an ordered group of requests submitted as one call. The
// paper's guarantees are amortized over request sequences, so a batch
// costs the core exactly what the same ops cost one by one — what
// batching buys is the front end: one lock acquisition, one mirror
// republish, and one telemetry stamp per touched shard instead of one
// per op.
type Batch []Op

// setBatchErr records err at submission index i, allocating the result
// slice only on the first error — a fully successful batch returns nil
// and allocates nothing.
func setBatchErr(result []error, n, i int, err error) []error {
	if result == nil {
		result = make([]error, n)
	}
	result[i] = err
	return result
}

func errUnknownOpKind(k OpKind) error {
	return fmt.Errorf("realloc: unknown op kind %d", k)
}

// toInternalOp converts a validated public op to the engine group form.
func toInternalOp(op Op) addrspace.Op {
	if op.Kind == OpDelete {
		return addrspace.Op{ID: addrspace.ID(op.ID), Del: true}
	}
	return addrspace.Op{ID: addrspace.ID(op.ID), Size: op.Size}
}

// growErrs hands out an n-slot error scratch, reusing capacity. Slots
// are not cleared: every consumer (ApplyGroup) writes all n of them.
func growErrs(p *[]error, n int) []error {
	if cap(*p) < n {
		*p = make([]error, n)
	}
	return (*p)[:n]
}

// resizeI32 hands out an n-slot int32 scratch, reusing capacity.
func resizeI32(p *[]int32, n int) []int32 {
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	return (*p)[:n]
}

// batchPool recycles the Batch buffers the InsertBatch and DeleteBatch
// convenience forms build, keeping them allocation-free at steady state
// like Apply itself.
var batchPool = sync.Pool{New: func() any { b := make(Batch, 0, 64); return &b }}

// applier is the shared batched surface of both facades.
type applier interface{ Apply(Batch) []error }

func insertBatch(a applier, ids, sizes []int64) []error {
	if len(ids) != len(sizes) {
		return []error{fmt.Errorf("realloc: InsertBatch: %d ids but %d sizes", len(ids), len(sizes))}
	}
	bp := batchPool.Get().(*Batch)
	b := (*bp)[:0]
	for i, id := range ids {
		b = append(b, InsertOp(id, sizes[i]))
	}
	res := a.Apply(b)
	*bp = b[:0]
	batchPool.Put(bp)
	return res
}

func deleteBatch(a applier, ids []int64) []error {
	bp := batchPool.Get().(*Batch)
	b := (*bp)[:0]
	for _, id := range ids {
		b = append(b, DeleteOp(id))
	}
	res := a.Apply(b)
	*bp = b[:0]
	batchPool.Put(bp)
	return res
}

// batchScratch is the plain facade's per-structure batch scratch; it is
// only touched under the facade lock.
type batchScratch struct {
	ops  []addrspace.Op
	idx  []int32
	errs []error
}

// Apply services the batch in submission order through the engine's
// group entry point: one lock acquisition and one telemetry stamp for
// the whole batch. The returned slice is nil when every op succeeded;
// otherwise it has len(batch) slots with each failed op's error at its
// submission index. Op i's failure never prevents op j from running —
// the batch is a sequence, not a transaction, exactly like the
// equivalent loop of Insert and Delete calls.
func (r *Reallocator) Apply(batch Batch) []error {
	if len(batch) == 0 {
		return nil
	}
	var start int64
	if r.tel != nil {
		start = telemetry.Now()
	}
	defer r.lock()()
	sc := &r.bs
	ops, idx := sc.ops[:0], sc.idx[:0]
	var result []error
	for i, op := range batch {
		switch op.Kind {
		case OpInsert:
			if err := validateSize(op.Size); err != nil {
				result = setBatchErr(result, len(batch), i, err)
				continue
			}
		case OpDelete:
		default:
			result = setBatchErr(result, len(batch), i, errUnknownOpKind(op.Kind))
			continue
		}
		ops = append(ops, toInternalOp(op))
		idx = append(idx, int32(i))
	}
	if len(ops) > 0 {
		errs := growErrs(&sc.errs, len(ops))
		r.inner.ApplyGroup(ops, errs)
		for k, e := range errs {
			if e != nil {
				result = setBatchErr(result, len(batch), int(idx[k]), e)
				errs[k] = nil
			}
		}
		if r.tel != nil {
			// Per-op latency is stamped from batch submission to group
			// completion — the wall-clock each op's caller experienced —
			// with two clock reads for the whole group instead of two per
			// op. Every op in the group shares that one value, so the
			// records coalesce into one RecordN per histogram.
			end := telemetry.Now()
			r.tel.BatchSize.Record(int64(len(ops)))
			var nDel int64
			for k := range ops {
				if ops[k].Del {
					nDel++
				}
			}
			r.tel.DeleteLatency.RecordN(end-start, nDel)
			r.tel.InsertLatency.RecordN(end-start, int64(len(ops))-nDel)
		}
	}
	sc.ops, sc.idx = ops, idx
	return result
}

// InsertBatch inserts ids[i] with sizes[i] for every i, as one batch.
// Error semantics match Apply; a length mismatch is reported as a
// single-element error slice without running any op.
func (r *Reallocator) InsertBatch(ids, sizes []int64) []error {
	return insertBatch(r, ids, sizes)
}

// DeleteBatch deletes every id as one batch. Error semantics match
// Apply.
func (r *Reallocator) DeleteBatch(ids []int64) []error {
	return deleteBatch(r, ids)
}

// shardedApplyScratch carries every slice the sharded batch path needs,
// pooled so steady-state batches allocate nothing.
type shardedApplyScratch struct {
	homes  []int32 // batch index -> routed shard, -1 when pre-failed
	offs   []int32 // counting-sort offsets, len shards+1
	order  []int32 // batch indexes grouped by shard
	ops    []addrspace.Op
	idx    []int32 // group position -> batch index
	errs   []error
	clears []int64
	retry  []int32
}

// Apply services the batch with one route-table snapshot, grouping ops
// by owning shard and taking each touched shard's lock exactly once (in
// ascending shard order — the same deterministic order migrations use,
// so batches and sweeps cannot deadlock). Within a shard, ops run in
// submission order; ops on different shards run in shard order, which
// is indistinguishable from submission order unless two ops share an id
// — and same-id ops always route to the same shard, where their order
// is preserved. Error semantics match the plain facade's Apply: nil on
// full success, per-op errors at submission indexes otherwise.
func (s *ShardedReallocator) Apply(batch Batch) []error {
	if len(batch) == 0 {
		return nil
	}
	var start int64
	if s.telReg != nil {
		start = telemetry.Now()
	}
	sc := s.applyPool.Get().(*shardedApplyScratch)
	result, mutated := s.applyBatch(batch, sc, start)
	s.applyPool.Put(sc)
	if s.inline {
		s.maybeStealRebalanceN(mutated)
	}
	return result
}

// InsertBatch inserts ids[i] with sizes[i] for every i, as one batch.
// Error semantics match Apply; a length mismatch is reported as a
// single-element error slice without running any op.
func (s *ShardedReallocator) InsertBatch(ids, sizes []int64) []error {
	return insertBatch(s, ids, sizes)
}

// DeleteBatch deletes every id as one batch. Unlike a loop of Delete
// calls — which republishes the route table once per displaced id —
// the batch clears all its router overrides in one copy-on-write
// publish per touched shard.
func (s *ShardedReallocator) DeleteBatch(ids []int64) []error {
	return deleteBatch(s, ids)
}

// applyBatch is Apply minus the pooling and trigger bookkeeping; it
// reports the per-op errors and how many ops ran (the inline rebalance
// trigger counts them like any other mutations).
func (s *ShardedReallocator) applyBatch(batch Batch, sc *shardedApplyScratch, start int64) ([]error, int64) {
	n := len(s.shards)
	t := s.router.table.Load()
	homes := resizeI32(&sc.homes, len(batch))
	offs := resizeI32(&sc.offs, n+1)
	for i := range offs {
		offs[i] = 0
	}
	var result []error
	live := 0
	for i, op := range batch {
		switch op.Kind {
		case OpInsert:
			if err := validateSize(op.Size); err != nil {
				result = setBatchErr(result, len(batch), i, err)
				homes[i] = -1
				continue
			}
		case OpDelete:
		default:
			result = setBatchErr(result, len(batch), i, errUnknownOpKind(op.Kind))
			homes[i] = -1
			continue
		}
		h := int32(s.router.routeIn(t, op.ID))
		homes[i] = h
		offs[h+1]++
		live++
	}
	if live == 0 {
		return result, 0
	}
	for i := 1; i <= n; i++ {
		offs[i] += offs[i-1]
	}
	// Counting-sort pass: after it, offs[h] is the END of shard h's
	// group (the cursor walked it forward), so group h spans
	// [end(h-1), offs[h]) — no cursor copy needed.
	order := resizeI32(&sc.order, live)
	for i, h := range homes {
		if h >= 0 {
			order[offs[h]] = int32(i)
			offs[h]++
		}
	}
	retry := sc.retry[:0]
	lo := int32(0)
	for si := 0; si < n; si++ {
		hi := offs[si]
		if hi > lo {
			result = s.applyShardGroup(batch, order[lo:hi], si, t, sc, start, result, &retry)
		}
		lo = hi
	}
	// Ops whose owner changed between the snapshot and the group lock
	// (a concurrent migration won the race) fall back to the per-op
	// acquire path; migrations are rare and bounded, so this never
	// carries more than a handful of ops.
	for _, i := range retry {
		if err := s.applyOne(batch[i], start); err != nil {
			result = setBatchErr(result, len(batch), int(i), err)
		}
	}
	sc.retry = retry[:0]
	return result, int64(live)
}

// applyShardGroup executes one shard's share of a batch under a single
// lock acquisition: re-validate ownership like acquire does (against
// the table pointer — if no new table was published the routes cannot
// have moved), run the group through the engine's group entry, clear
// the overrides of deleted displaced ids in one route republish, and
// republish the read mirrors once.
func (s *ShardedReallocator) applyShardGroup(batch Batch, group []int32, si int, t *routeTable, sc *shardedApplyScratch, start int64, result []error, retry *[]int32) []error {
	sh := s.shards[si]
	sh.mu.Lock()
	cur := s.router.table.Load()
	ops, idx := sc.ops[:0], sc.idx[:0]
	if cur == t {
		for _, i := range group {
			ops = append(ops, toInternalOp(batch[i]))
			idx = append(idx, i)
		}
	} else {
		for _, i := range group {
			if s.router.routeIn(cur, batch[i].ID) != si {
				*retry = append(*retry, i)
				continue
			}
			ops = append(ops, toInternalOp(batch[i]))
			idx = append(idx, i)
		}
	}
	if len(ops) == 0 {
		sh.mu.Unlock()
		sc.ops, sc.idx = ops, idx
		return result
	}
	errs := growErrs(&sc.errs, len(ops))
	sh.inner.ApplyGroup(ops, errs)
	// One route republish for all of the group's displaced deletes. The
	// override set involving this shard is frozen while we hold its lock
	// (adding or dropping an override for an id owned here needs this
	// lock), so checking cur's override map is authoritative.
	if cur.overrides != nil {
		clears := sc.clears[:0]
		for k, i := range idx {
			if errs[k] == nil && batch[i].Kind == OpDelete {
				if _, ok := cur.overrides[int64(ops[k].ID)]; ok {
					clears = append(clears, int64(ops[k].ID))
				}
			}
		}
		s.router.clearAll(clears)
		sc.clears = clears[:0]
	}
	sh.publish()
	if sh.tel != nil {
		// One clock read closes the whole group; each op's latency is
		// submit-to-group-completion, the wall-clock its caller saw.
		// The group shares that single value, so its records coalesce
		// into one RecordN per histogram.
		end := telemetry.Now()
		sh.tel.BatchSize.Record(int64(len(ops)))
		var nDel int64
		for k := range ops {
			if ops[k].Del {
				nDel++
			}
		}
		sh.tel.DeleteLatency.RecordN(end-start, nDel)
		sh.tel.InsertLatency.RecordN(end-start, int64(len(ops))-nDel)
	}
	sh.mu.Unlock()
	for k, e := range errs {
		if e != nil {
			result = setBatchErr(result, len(batch), int(idx[k]), e)
			errs[k] = nil
		}
	}
	sc.ops, sc.idx = ops, idx
	return result
}

// applyOne is the batch path's per-op fallback for ops a concurrent
// migration rerouted after the batch's route snapshot: the body of
// Insert/Delete with the latency stamped from the batch's submit time.
func (s *ShardedReallocator) applyOne(op Op, start int64) error {
	sh, _ := s.acquire(op.ID)
	var err error
	if op.Kind == OpDelete {
		err = sh.inner.Delete(addrspace.ID(op.ID))
	} else {
		err = sh.inner.Insert(addrspace.ID(op.ID), op.Size)
	}
	if err == nil {
		sh.publish()
		if op.Kind == OpDelete {
			s.router.clear(op.ID)
		}
	}
	if sh.tel != nil {
		end := telemetry.Now()
		sh.tel.BatchSize.Record(1)
		if op.Kind == OpDelete {
			sh.tel.DeleteLatency.Record(end - start)
		} else {
			sh.tel.InsertLatency.Record(end - start)
		}
	}
	sh.mu.Unlock()
	return err
}

// maybeStealRebalanceN is maybeStealRebalance for a batch of n mutating
// ops: the counter advances by n and the skew check fires when the
// batch crossed a CheckEvery boundary, so batched and per-op traffic
// trigger at the same op cadence.
func (s *ShardedReallocator) maybeStealRebalanceN(n int64) {
	if n <= 0 {
		return
	}
	c := s.opCount.Add(n)
	every := int64(s.pol.CheckEvery)
	if (c-n)/every != c/every && s.skewedNow() {
		s.tryRebalance()
	}
}

// clearAll drops every listed id's override in one copy-on-write
// publish — the batched form of clear, with the same safety contract:
// the caller holds the owning shard's lock for every id, so a stale
// override can never outlive a live object it would misroute.
func (rt *router) clearAll(ids []int64) {
	if len(ids) == 0 {
		return
	}
	rt.update(func(m map[int64]int) bool {
		changed := false
		for _, id := range ids {
			if _, ok := m[id]; ok {
				delete(m, id)
				changed = true
			}
		}
		return changed
	})
}
