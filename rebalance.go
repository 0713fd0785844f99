package realloc

import (
	"fmt"
	"time"

	"realloc/internal/addrspace"
	"realloc/internal/rebalance"
	"realloc/internal/telemetry"
)

// RebalanceMode selects when the rebalancer runs; see WithRebalance.
type RebalanceMode int

const (
	// RebalanceBackground sweeps on a ticker goroutine: skew is checked
	// every Interval and a migration batch runs when it trips. Call Close
	// to stop the goroutine.
	RebalanceBackground RebalanceMode = iota
	// RebalanceInline steals work on the request path: every CheckEvery
	// mutating requests the inserting (or deleting) goroutine checks skew
	// (lock-free, against cached per-shard volumes) and runs the
	// migration batch itself when the threshold trips. No goroutine is
	// involved, but still call Close when done: it reports the first
	// error any triggered sweep encountered (an erroring sweep also
	// disarms further automatic sweeps).
	RebalanceInline
)

// RebalancePolicy configures dynamic cross-shard rebalancing. Zero fields
// take defaults: Threshold 1.5, BatchObjects 256, CheckEvery 64,
// Interval 2ms.
type RebalancePolicy struct {
	Mode RebalanceMode
	// Threshold is the imbalance trigger θ: rebalancing starts when
	// max(shard volume)/mean(shard volume) exceeds it. Must be > 1.
	Threshold float64
	// BatchObjects bounds how many objects one planned move migrates, so
	// a single sweep's pause is bounded regardless of skew.
	BatchObjects int
	// CheckEvery is the inline mode's skew-check period in mutating
	// requests.
	CheckEvery int
	// Interval is the background mode's sweep period.
	Interval time.Duration
}

func toInternalPolicy(p RebalancePolicy) rebalance.Policy {
	mode := rebalance.Background
	if p.Mode == RebalanceInline {
		mode = rebalance.Inline
	}
	return rebalance.Policy{
		Mode:         mode,
		Threshold:    p.Threshold,
		BatchObjects: p.BatchObjects,
		CheckEvery:   p.CheckEvery,
		Interval:     p.Interval,
	}
}

// Rebalance runs one sweep now: it reads the per-shard volumes, plans the
// moves that level them (no-op while max/mean is within the policy
// threshold), and migrates the planned batches. It returns the number of
// objects migrated. Sweeps are serialized; concurrent Insert/Delete
// traffic proceeds except on the two shards a batch currently locks.
// Rebalance works with or without WithRebalance — the option only arms
// the automatic trigger.
func (s *ShardedReallocator) Rebalance() (int, error) {
	s.rebalanceMu.Lock()
	defer s.rebalanceMu.Unlock()
	return s.sweep()
}

// MigrateShard migrates up to maxObjects objects from shard `from` to
// shard `to`, regardless of skew — the manual form of what Rebalance
// does by policy. maxVolume is a target, not a hard cap: objects move
// until the migrated volume reaches it, so the batch can overshoot by up
// to one object (at most ∆ cells). Ids keep their public identity; only
// their owning shard (and hence address space) changes.
func (s *ShardedReallocator) MigrateShard(from, to int, maxVolume int64, maxObjects int) (int, error) {
	if from < 0 || from >= len(s.shards) || to < 0 || to >= len(s.shards) {
		return 0, fmt.Errorf("realloc: migrate %d->%d out of range [0,%d)", from, to, len(s.shards))
	}
	s.rebalanceMu.Lock()
	defer s.rebalanceMu.Unlock()
	return s.migrate(from, to, maxVolume, maxObjects)
}

// Migrations returns how many objects the rebalancer has moved across
// shards, and their total volume.
func (s *ShardedReallocator) Migrations() (objects int64, volume int64) {
	return s.migrations.Load(), s.migratedVolume.Load()
}

// RouteOverrides returns how many live ids are currently routed away from
// their hash home — the size of the id→shard override table.
func (s *ShardedReallocator) RouteOverrides() int { return s.router.overrideCount() }

// Close stops the background rebalancer goroutine, if any, and returns
// the first error any triggered sweep (background or inline) hit. It is
// idempotent, and every method remains usable after Close.
func (s *ShardedReallocator) Close() error {
	s.closeOnce.Do(func() {
		if s.stop != nil {
			close(s.stop)
			<-s.done
		}
	})
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.rebalErr
}

// skewedNow is the lock-free trigger check against the mirrored
// per-shard volumes; the scratch vector is pooled so hot-path inline
// triggers allocate nothing.
func (s *ShardedReallocator) skewedNow() bool {
	volsPtr := s.volScratch.Get().(*[]int64)
	vols := s.AppendShardVolumes((*volsPtr)[:0])
	skewed := rebalance.Skew(vols) > s.pol.Threshold
	*volsPtr = vols
	s.volScratch.Put(volsPtr)
	return skewed
}

// maybeStealRebalance is the inline-mode trigger, run by mutating
// goroutines after they release their shard lock: every CheckEvery
// requests, check skew and steal a sweep.
func (s *ShardedReallocator) maybeStealRebalance() {
	if s.opCount.Add(1)%int64(s.pol.CheckEvery) == 0 && s.skewedNow() {
		s.tryRebalance()
	}
}

// tryRebalance runs a sweep unless one is already running (triggered
// paths must not queue up behind each other). A sweep error sticks for
// Close and disarms further automatic sweeps — a migration that failed
// once must not be retried blindly on a structure in an unexpected
// state.
func (s *ShardedReallocator) tryRebalance() {
	s.errMu.Lock()
	disarmed := s.rebalErr != nil
	s.errMu.Unlock()
	if disarmed {
		return
	}
	if !s.rebalanceMu.TryLock() {
		return
	}
	defer s.rebalanceMu.Unlock()
	if _, err := s.sweep(); err != nil {
		s.errMu.Lock()
		if s.rebalErr == nil {
			s.rebalErr = err
		}
		s.errMu.Unlock()
	}
}

// sweep plans against the cached volumes and executes; rebalanceMu held.
func (s *ShardedReallocator) sweep() (int, error) {
	if len(s.shards) < 2 {
		return 0, nil
	}
	vols := s.AppendShardVolumes(nil)
	moved := 0
	for _, m := range rebalance.PlanMoves(vols, s.pol.Threshold) {
		n, err := s.migrate(m.From, m.To, m.Volume, s.pol.BatchObjects)
		moved += n
		if err != nil {
			return moved, err
		}
	}
	return moved, nil
}

// backgroundLoop is the RebalanceBackground goroutine.
func (s *ShardedReallocator) backgroundLoop() {
	defer close(s.done)
	t := time.NewTicker(s.pol.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if s.skewedNow() {
				s.tryRebalance()
			}
		}
	}
}

// migrate moves up to maxObjects objects totalling ~volBudget cells from
// shard `from` to shard `to`. Both shard locks are taken in index order
// (the deterministic order that makes concurrent sweeps and operations
// deadlock-free), so the whole batch — delete from source, insert into
// target, reroute the id, emit the migration event — is atomic with
// respect to every other operation on either shard.
func (s *ShardedReallocator) migrate(from, to int, volBudget int64, maxObjects int) (int, error) {
	if from == to || volBudget < 1 || maxObjects < 1 {
		return 0, nil
	}
	a, b := from, to
	if b < a {
		a, b = b, a
	}
	s.shards[a].mu.Lock()
	defer s.shards[a].mu.Unlock()
	s.shards[b].mu.Lock()
	defer s.shards[b].mu.Unlock()
	return s.migrateLocked(from, to, volBudget, maxObjects)
}

func (s *ShardedReallocator) migrateLocked(from, to int, volBudget int64, maxObjects int) (moved int, err error) {
	src, dst := s.shards[from], s.shards[to]
	// Quiesce any deamortized flush tails on both sides so every delete
	// applies immediately and every insert is physically placed: the
	// batch must leave no object half-resident on two shards.
	if err := src.inner.Drain(); err != nil {
		return 0, fmt.Errorf("realloc: migrate drain shard %d: %w", from, err)
	}
	if err := dst.inner.Drain(); err != nil {
		return 0, fmt.Errorf("realloc: migrate drain shard %d: %w", to, err)
	}
	type victim struct {
		id  addrspace.ID
		ext addrspace.Extent
	}
	var all []victim
	src.inner.ForEach(func(id addrspace.ID, e addrspace.Extent) {
		all = append(all, victim{id, e})
	})
	var movedVol int64
	var rerouted []int64
	// Whatever path exits the batch, reroute the objects that did move,
	// account them, and republish both shards' read mirrors. The route
	// table is republished once for the whole batch — both shard locks
	// stay held until after this defer runs, so acquire's under-lock
	// re-check can never act on the not-yet-published reroutes.
	defer func() {
		s.router.setAll(rerouted, to)
		src.publish()
		dst.publish()
		s.migrations.Add(int64(moved))
		s.migratedVolume.Add(movedVol)
	}()
	// Take victims from the top of the source address space: freeing the
	// highest extents is what lets the source's next flush shrink its
	// footprint the most.
	var payload []byte // reused carry buffer; nil per object without a real backend
	for i := len(all) - 1; i >= 0 && moved < maxObjects && movedVol < volBudget; i-- {
		v := all[i]
		// Migration latency is charged to the source shard's set: it is the
		// shard whose traffic the batch displaces.
		var t0 int64
		if src.tel != nil {
			t0 = telemetry.Now()
		}
		// Re-read the extent at the last moment: an earlier delete in this
		// batch can trigger a compaction flush on the source that has
		// already relocated this victim, and the migrate event must name
		// the address the object actually vacates.
		ext, ok := src.inner.Extent(v.id)
		if !ok {
			return moved, fmt.Errorf("realloc: migrate %d->%d lost id %d on source", from, to, v.id)
		}
		// Shards own private arenas, so a cross-shard move is a real copy:
		// snapshot the payload before the delete (a delete-triggered
		// compaction may overwrite the vacated cells immediately).
		payload = payload[:0]
		if b, ok := src.inner.Bytes(v.id); ok {
			payload = append(payload, b...)
		}
		if err := src.inner.Delete(v.id); err != nil {
			return moved, fmt.Errorf("realloc: migrate %d->%d delete id %d: %w", from, to, v.id, err)
		}
		if err := dst.inner.Insert(v.id, ext.Size); err != nil {
			// Roll the object back onto the source (its space is still
			// free) so a failed migration never loses the object.
			if rerr := src.inner.Insert(v.id, ext.Size); rerr != nil {
				return moved, fmt.Errorf("realloc: migrate %d->%d insert id %d: %v (rollback failed: %w)",
					from, to, v.id, err, rerr)
			}
			if len(payload) > 0 {
				if werr := src.inner.Write(v.id, payload); werr != nil {
					return moved, fmt.Errorf("realloc: migrate %d->%d rollback payload of id %d: %w", from, to, v.id, werr)
				}
			}
			return moved, fmt.Errorf("realloc: migrate %d->%d insert id %d: %w", from, to, v.id, err)
		}
		if len(payload) > 0 {
			if err := dst.inner.Write(v.id, payload); err != nil {
				return moved, fmt.Errorf("realloc: migrate %d->%d payload of id %d: %w", from, to, v.id, err)
			}
		}
		rerouted = append(rerouted, int64(v.id))
		moved++
		movedVol += ext.Size
		if s.observer != nil {
			newExt, ok := dst.inner.Extent(v.id)
			if !ok {
				return moved, fmt.Errorf("realloc: migrate %d->%d lost id %d", from, to, v.id)
			}
			s.observer(Event{
				Kind:      EventMigrate,
				ID:        int64(v.id),
				Size:      ext.Size,
				From:      ext.Start,
				To:        newExt.Start,
				Footprint: dst.inner.Footprint(),
				Volume:    dst.inner.Volume(),
				Shard:     to,
				FromShard: from,
			})
		}
		if src.tel != nil {
			src.tel.MigrateLatency.Record(telemetry.Now() - t0)
		}
	}
	// Let the source compact the space the batch vacated before the locks
	// drop (deletes trigger shrink flushes; the drain completes any
	// deamortized tail so the footprint bound is restored immediately).
	if err := src.inner.Drain(); err != nil {
		return moved, fmt.Errorf("realloc: migrate drain shard %d: %w", from, err)
	}
	return moved, nil
}
