// Package btl implements the block translation layer of a write-optimized
// database (the TokuDB-style setting of Sections 1 and 3.1): logical block
// names map to physical extents managed by a checkpointed cost-oblivious
// reallocator.
//
// The layer demonstrates why the checkpoint rule exists. Moving a block
// updates the in-memory translation map, but the durable copy of the map
// is only written at checkpoints; until then the block's data must survive
// at its old address too. The substrate enforces exactly that (space freed
// since the last checkpoint cannot be rewritten), so recovering from a
// crash with the last durable map always finds intact data.
//
// The store runs in one of two modes. The default is in-memory: the
// durable map is a shadow snapshot and Crash/Recover simulate failure
// without touching media. Durable mode (Config.Dir or Config.FS, see
// durable.go) writes real media — a file-backed payload arena, whose
// checkpoint sync writes back only the pages dirtied since the last
// one, plus a write-ahead log of every placement — and Recover
// replays the log and verifies the surviving arena bytes instead of
// reading any in-memory state. Durable stores therefore keep neither
// the shadow map nor per-cell owner stamps: a durable checkpoint costs
// its two syncs plus O(1) bookkeeping.
package btl

import (
	"errors"
	"fmt"
	"hash/crc64"

	"realloc/internal/addrspace"
	"realloc/internal/arena"
	"realloc/internal/core"
	"realloc/internal/faultfs"
	"realloc/internal/telemetry"
	"realloc/internal/trace"
	"realloc/internal/wal"
)

// crcTable is the checksum polynomial for block payload verification.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Errors reported by the store.
var (
	ErrExists     = errors.New("btl: block already exists")
	ErrNotFound   = errors.New("btl: no such block")
	ErrCrashed    = errors.New("btl: store is crashed; call Recover")
	ErrNotCrashed = errors.New("btl: Recover without crash")
)

// Store is a crash-consistent block store.
type Store struct {
	realloc *core.Reallocator
	variant core.Variant
	epsilon float64
	tap     trace.Recorder // caller's recorder, preserved across recoveries

	byName map[string]addrspace.ID
	names  map[addrspace.ID]string
	nextID addrspace.ID
	// sums holds the payload checksum of every block written through the
	// bytes-taking Put, keyed by id; blocks a payload was never stored
	// for (Reserve, or a metered backend) have no entry. A block's bytes
	// never change after Put (Update allocates a fresh id), so one
	// checksum per id is exact.
	sums    map[addrspace.ID]uint64
	backend arena.Kind

	// durable is the translation map as of the last checkpoint: what an
	// in-memory Recover reads back. Durable stores leave it nil — their
	// WAL already is that map, and Recover replays it from media.
	durable map[string]blockMeta

	crashed bool

	// Durable-mode machinery (see durable.go); all zero for in-memory
	// stores.
	fs    faultfs.FS
	data  arena.Backend
	walF  faultfs.File
	w     *wal.Writer
	gen   uint64 // arena-file generation, stamped into checkpoint records
	seq   uint64 // checkpoint sequence
	ioErr error  // sticky durable-I/O failure; the store refuses ops until recovery
	tel   *telemetry.Set
	// pendingName hands a block's logical name from Reserve to the WAL
	// hook: the KInsert trace event fires inside realloc.Insert, which
	// is the only point that knows the placement.
	pendingName string
	// rebuilding suppresses the durable checkpoint protocol while
	// recovery re-inserts survivors: the core may force checkpoints
	// mid-rebuild, but logging one would stamp the new generation while
	// the replay table still holds old-generation extents for blocks not
	// yet re-inserted. Until the final recovery checkpoint, the previous
	// generation stays authoritative.
	rebuilding bool

	// Counters.
	checkpoints int64
	recoveries  int64
}

// blockMeta is one durable map entry.
type blockMeta struct {
	id  addrspace.ID
	ext addrspace.Extent
	// sum is the payload checksum recorded at Put; hasSum distinguishes
	// a real zero checksum from "no payload stored".
	sum    uint64
	hasSum bool
}

// Config parameterizes a Store.
type Config struct {
	// Epsilon is the reallocator's footprint slack (default 0.25).
	Epsilon float64
	// Deamortized selects the Section 3.3 reallocator so block writes
	// never block on long flushes; default is the Section 3.2 one.
	Deamortized bool
	// Recorder taps the reallocator's event stream (may be nil).
	Recorder trace.Recorder
	// Backend selects the payload arena. The zero value (Metered) counts
	// moved volume without storing bytes; a real backend stores every
	// block's payload at its physical extent and lets Recover verify
	// checksums against the raw surviving cells. Ignored in durable
	// mode, which always stores real bytes on media.
	Backend arena.Kind
	// Dir, when non-empty, selects durable mode over real files in that
	// directory: a file-backed payload arena whose dirty pages are
	// written back and fsynced at every checkpoint, plus a write-ahead
	// log. New truncates any existing state; Open recovers from it.
	Dir string
	// FS, when non-nil, selects durable mode over the given file system
	// instead of real files — the fault-injection seam (a faultfs.MemFS
	// with an Injector). Takes precedence over Dir for file access.
	FS faultfs.FS
	// Telemetry, when non-nil, receives WAL fsync latencies and
	// recovery durations.
	Telemetry *telemetry.Set
}

// ckptHook snapshots the durable map whenever the reallocator blocks on a
// checkpoint, mirroring the database writing its translation table.
type ckptHook struct {
	store *Store
	next  trace.Recorder
}

func (h *ckptHook) Record(e trace.Event) {
	// Durable mode logs the event stream itself: the WAL is a framed
	// mirror of exactly these events, so replay order equals event
	// order by construction.
	if s := h.store; s.w != nil && s.ioErr == nil {
		switch e.Kind {
		case trace.KInsert:
			s.logWAL(wal.Record{Kind: wal.KInsert, ID: uint64(e.ID), Start: e.To, Size: e.Size, Name: s.pendingName})
		case trace.KMove:
			s.logWAL(wal.Record{Kind: wal.KMove, ID: uint64(e.ID), Start: e.To})
		case trace.KDelete:
			s.logWAL(wal.Record{Kind: wal.KDelete, ID: uint64(e.ID)})
		}
	}
	if e.Kind == trace.KCheckpoint {
		h.store.snapshot()
	}
	if h.next != nil {
		h.next.Record(e)
	}
}

// New creates an empty store. In durable mode (cfg.Dir or cfg.FS) any
// existing media state is truncated — use Open to recover instead.
func New(cfg Config) (*Store, error) {
	s, err := newShell(cfg)
	if err != nil {
		return nil, err
	}
	var data arena.Backend
	if s.fs != nil {
		data, err = s.freshMedia()
	} else {
		data, err = arena.New(cfg.Backend)
	}
	if err != nil {
		return nil, err
	}
	if err := s.attachCore(data); err != nil {
		return nil, err
	}
	return s, nil
}

// newShell builds a Store with everything but the reallocator and the
// media handles: the shared prefix of New and Open.
func newShell(cfg Config) (*Store, error) {
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 0.25
	}
	s := &Store{
		byName:  make(map[string]addrspace.ID),
		names:   make(map[addrspace.ID]string),
		sums:    make(map[addrspace.ID]uint64),
		nextID:  1,
		backend: cfg.Backend,
		tel:     cfg.Telemetry,
	}
	variant := core.Checkpointed
	if cfg.Deamortized {
		variant = core.Deamortized
	}
	s.variant = variant
	s.tap = cfg.Recorder
	s.epsilon = cfg.Epsilon
	if cfg.FS != nil {
		s.fs = cfg.FS
		s.backend = arena.File
	} else if cfg.Dir != "" {
		s.fs = faultfs.OS{Dir: cfg.Dir}
		s.backend = arena.File
	}
	return s, nil
}

// attachCore wires a fresh reallocator over the given payload arena.
// Only in-memory stores stamp cell owners: their Recover checks them.
// Durable recovery verifies crc64 over the real arena bytes instead,
// so a durable store's moves skip the per-byte stamps.
func (s *Store) attachCore(data arena.Backend) error {
	r, err := core.New(core.Config{
		Epsilon:    s.epsilon,
		Variant:    s.variant,
		Recorder:   &ckptHook{store: s, next: s.tap},
		TrackCells: s.fs == nil,
		Arena:      data,
	})
	if err != nil {
		return err
	}
	s.realloc = r
	s.data = data
	return nil
}

// Reallocator exposes the underlying reallocator (tests, metrics).
func (s *Store) Reallocator() *core.Reallocator { return s.realloc }

// Len returns the number of live blocks.
func (s *Store) Len() int { return len(s.byName) }

// Footprint returns the largest allocated disk address.
func (s *Store) Footprint() int64 { return s.realloc.Footprint() }

// Volume returns the total live block volume.
func (s *Store) Volume() int64 { return s.realloc.Volume() }

// Checkpoints returns how many checkpoints have been taken (both
// reallocator-forced and explicit).
func (s *Store) Checkpoints() int64 { return s.checkpoints }

// Reserve creates block name with the given size and no payload — the
// cost-model path, where only the extent bookkeeping matters.
func (s *Store) Reserve(name string, size int64) error {
	if err := s.opErr(); err != nil {
		return err
	}
	if _, dup := s.byName[name]; dup {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	id := s.nextID
	s.nextID++
	s.pendingName = name
	err := s.realloc.Insert(id, size)
	s.pendingName = ""
	if err != nil {
		return err
	}
	s.byName[name] = id
	s.names[id] = name
	return s.opErr()
}

// opErr reports why the store cannot accept an operation: a simulated
// crash, or (durable mode) a sticky media failure — once a WAL append,
// arena sync, or log fsync has failed, every later op fails with the
// original cause until the store is recovered.
func (s *Store) opErr() error {
	if s.crashed {
		return ErrCrashed
	}
	if s.ioErr != nil {
		return fmt.Errorf("btl: durable store failed: %w", s.ioErr)
	}
	return nil
}

// Err exposes the sticky durable-I/O failure (nil while healthy).
func (s *Store) Err() error { return s.ioErr }

// Put creates block name holding data (size = len(data)). On a real
// backend the bytes are stored at the block's physical extent and a
// checksum is recorded, so Recover can verify the payload survived a
// crash byte for byte; under Metered the call degrades to Reserve.
func (s *Store) Put(name string, data []byte) error {
	if err := s.Reserve(name, int64(len(data))); err != nil {
		return err
	}
	id := s.byName[name]
	if !s.realloc.Space().HasData() {
		return nil
	}
	if err := s.realloc.Write(id, data); err != nil {
		return err
	}
	sum := crc64.Checksum(data, crcTable)
	s.sums[id] = sum
	// The checksum is logged only now, after the payload hit the arena:
	// a checkpoint forced during the insert above snapshots the block as
	// placed-but-unverified, which is exactly what the arena holds.
	if s.w != nil && s.ioErr == nil {
		s.logWAL(wal.Record{Kind: wal.KSum, ID: uint64(id), Sum: sum})
	}
	return s.opErr()
}

// Get returns a copy of block name's payload bytes. It fails unless the
// block was written through the bytes-taking Put on a real backend.
func (s *Store) Get(name string) ([]byte, error) {
	if err := s.opErr(); err != nil {
		return nil, err
	}
	id, ok := s.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	raw, ok := s.realloc.Bytes(id)
	if !ok {
		// Bytes fails only where Read does; let Read name the cause
		// (ErrNoData without a real backend).
		_, err := s.realloc.Read(id, nil)
		return nil, err
	}
	out := make([]byte, len(raw))
	copy(out, raw)
	return out, nil
}

// Update rewrites block name at a new size, as a database does when a
// node changes after compression. The new copy is written and mapped
// before the old one is freed, so a checkpoint forced at any instant
// during the update still snapshots a live copy of the block.
func (s *Store) Update(name string, size int64) error {
	if err := s.opErr(); err != nil {
		return err
	}
	id, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	nid := s.nextID
	s.nextID++
	s.pendingName = name
	err := s.realloc.Insert(nid, size)
	s.pendingName = ""
	if err != nil {
		return err
	}
	s.byName[name] = nid
	s.names[nid] = name
	delete(s.names, id)
	delete(s.sums, id)
	if err := s.realloc.Delete(id); err != nil {
		return err
	}
	return s.opErr()
}

// Drop deletes block name.
func (s *Store) Drop(name string) error {
	if err := s.opErr(); err != nil {
		return err
	}
	id, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if err := s.realloc.Delete(id); err != nil {
		return err
	}
	delete(s.byName, name)
	delete(s.names, id)
	delete(s.sums, id)
	return s.opErr()
}

// Lookup translates a block name to its current physical extent.
func (s *Store) Lookup(name string) (addrspace.Extent, bool) {
	if s.crashed {
		return addrspace.Extent{}, false
	}
	id, ok := s.byName[name]
	if !ok {
		return addrspace.Extent{}, false
	}
	return s.realloc.Extent(id)
}

// Checkpoint writes the translation map durably and makes all freed space
// reusable (the system-initiated checkpoint of Section 3.1). In durable
// mode this is the fsync point: the arena is synced to media, then the
// checkpoint record is appended and the WAL group-fsynced.
func (s *Store) Checkpoint() {
	if s.crashed || s.ioErr != nil {
		return
	}
	s.realloc.Space().Checkpoint()
	s.snapshot()
}

// snapshot makes the translation map durable at a checkpoint instant.
// An in-memory store copies it into the shadow map its Recover reads.
// A durable store's WAL already holds every placement, so it runs only
// the media protocol — two syncs, no walk of the live blocks — in this
// exact order:
//
//  1. arena sync — every checkpointed extent's bytes become durable;
//  2. checkpoint record appended to the WAL;
//  3. WAL group-fsync — the buffered event records plus the marker
//     become durable together.
//
// If the crash falls between 1 and 3, replay lands on the previous
// checkpoint, whose extents are still intact in the newer arena image:
// the substrate's checkpoint rule kept every extent of checkpoint N
// byte-identical until the N+1 event, so an arena image taken at the
// N+1 instant (even a torn prefix of one) still verifies at N.
func (s *Store) snapshot() {
	s.checkpoints++
	if s.fs == nil {
		durable := make(map[string]blockMeta, len(s.byName))
		for name, id := range s.byName {
			if ext, ok := s.realloc.Extent(id); ok {
				meta := blockMeta{id: id, ext: ext}
				if sum, ok := s.sums[id]; ok {
					meta.sum, meta.hasSum = sum, true
				}
				durable[name] = meta
			}
		}
		s.durable = durable
		return
	}
	if s.w == nil || s.ioErr != nil || s.rebuilding {
		return
	}
	if err := s.data.Sync(); err != nil {
		s.ioErr = err
		return
	}
	s.seq++
	s.logWAL(wal.Record{Kind: wal.KCheckpoint, Seq: s.seq, ID: s.gen})
	if s.ioErr != nil {
		return
	}
	if err := s.w.Sync(); err != nil {
		s.ioErr = err
	}
}

// logWAL appends one record to the group buffer, latching any failure
// as the sticky media error.
func (s *Store) logWAL(rec wal.Record) {
	if err := s.w.Append(rec); err != nil {
		s.ioErr = err
	}
}

// Crash simulates a failure: the in-memory translation map disappears;
// only the durable map (in-memory mode) or the media files (durable
// mode) survive. Crash is idempotent — a second crash changes nothing.
func (s *Store) Crash() {
	if s.crashed {
		return
	}
	s.crashed = true
	s.byName = nil
	s.names = nil
}

// RecoveryReport describes the outcome of Recover.
type RecoveryReport struct {
	Recovered int
	// Corrupt lists durable blocks whose data was overwritten — always
	// empty while the checkpoint rule holds; any entry is a durability
	// bug.
	Corrupt []string
	// Seq is the checkpoint sequence the store recovered to (durable
	// mode only: the last checkpoint whose WAL record survived).
	Seq uint64
	// WALTail counts valid WAL records after that checkpoint — work the
	// store did but never made durable (durable mode only).
	WALTail int
}

// Recover rebuilds the store after a crash. Without a crash it fails
// with ErrNotCrashed; a recovered store is immediately usable again.
//
// In durable mode it reads the real media: the WAL is replayed to the
// last durable checkpoint and every surviving block is verified against
// the arena file (see recoverFromMedia). In-memory mode verifies every
// durable block's data is intact at its mapped extent of the crashed
// arena (possible precisely because space freed since that checkpoint
// was never rewritten) — on a real backend by checksumming the raw
// surviving cells against the sum recorded at Put — then reloads the
// blocks, payloads included, into a fresh reallocator over a fresh
// arena.
func (s *Store) Recover() (RecoveryReport, error) {
	if !s.crashed {
		return RecoveryReport{}, ErrNotCrashed
	}
	if s.fs != nil {
		return s.recoverFromMedia()
	}
	var rep RecoveryReport
	old := s.realloc.Space()
	for name, meta := range s.durable {
		if !old.HoldsData(meta.id, meta.ext) {
			rep.Corrupt = append(rep.Corrupt, name)
			continue
		}
		// The physical check: the bytes at the durable extent of the
		// crashed arena must still hash to the checksum recorded when the
		// block was written — the checkpoint rule is what makes this hold.
		if meta.hasSum && old.HasData() {
			raw := old.Data().Bytes(meta.ext.Start, meta.ext.Size)
			if crc64.Checksum(raw, crcTable) != meta.sum {
				rep.Corrupt = append(rep.Corrupt, name)
			}
		}
	}
	if len(rep.Corrupt) > 0 {
		return rep, fmt.Errorf("btl: %d blocks corrupted after crash", len(rep.Corrupt))
	}
	// Reload the surviving blocks into a fresh reallocator (the database
	// rewrites them as it warms up). The fresh core gets its own arena —
	// re-inserting into the crashed one would overwrite durable data
	// before it is read back.
	oldArena := s.data
	data, err := arena.New(s.backend)
	if err != nil {
		return rep, err
	}
	fresh, err := core.New(core.Config{
		Epsilon:    s.realloc.Epsilon(),
		Variant:    s.variant,
		Recorder:   &ckptHook{store: s, next: s.tap},
		TrackCells: true,
		Arena:      data,
	})
	if err != nil {
		return rep, err
	}
	s.byName = make(map[string]addrspace.ID, len(s.durable))
	s.names = make(map[addrspace.ID]string, len(s.durable))
	sums := make(map[addrspace.ID]uint64, len(s.durable))
	for name, meta := range s.durable {
		if err := fresh.Insert(meta.id, meta.ext.Size); err != nil {
			return rep, err
		}
		if meta.hasSum && old.HasData() {
			// Carry the payload across: read from the crashed arena at the
			// durable address, write at wherever the fresh core placed the
			// block. Later flushes keep it attached to the block.
			raw := old.Data().Bytes(meta.ext.Start, meta.ext.Size)
			if err := fresh.Write(meta.id, raw); err != nil {
				return rep, err
			}
			sums[meta.id] = meta.sum
		}
		s.byName[name] = meta.id
		s.names[meta.id] = name
		rep.Recovered++
		if meta.id >= s.nextID {
			s.nextID = meta.id + 1
		}
	}
	s.realloc = fresh
	s.data = data
	s.sums = sums
	s.crashed = false
	s.recoveries++
	s.snapshot()
	if oldArena != nil {
		_ = oldArena.Close()
	}
	return rep, nil
}

// CheckInvariants validates the whole stack: the reallocator's
// structural invariants, the name maps' mutual consistency, and — on a
// real arena — every checksummed block's payload against the bytes at
// its current extent.
func (s *Store) CheckInvariants() error {
	if s.crashed {
		return ErrCrashed
	}
	if err := s.realloc.CheckInvariants(); err != nil {
		return err
	}
	if len(s.byName) != len(s.names) {
		return fmt.Errorf("btl: name maps diverged: %d names, %d ids", len(s.byName), len(s.names))
	}
	for name, id := range s.byName {
		if back, ok := s.names[id]; !ok || back != name {
			return fmt.Errorf("btl: id %d maps to %q, not %q", id, back, name)
		}
		ext, ok := s.realloc.Extent(id)
		if !ok {
			return fmt.Errorf("btl: block %q has no extent", name)
		}
		if sum, ok := s.sums[id]; ok && s.realloc.Space().HasData() {
			raw := s.realloc.Space().Data().Bytes(ext.Start, ext.Size)
			if crc64.Checksum(raw, crcTable) != sum {
				return fmt.Errorf("btl: block %q fails its checksum at %v", name, ext)
			}
		}
	}
	return nil
}

// Close releases the store's arena and (durable mode) WAL handles. A
// closed store must not be used further.
func (s *Store) Close() error {
	var first error
	if s.data != nil {
		if err := s.data.Close(); err != nil {
			first = err
		}
		s.data = nil
	}
	if s.walF != nil {
		if err := s.walF.Close(); err != nil && first == nil {
			first = err
		}
		s.walF = nil
		s.w = nil
	}
	return first
}
