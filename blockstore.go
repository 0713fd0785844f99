package realloc

import (
	"realloc/internal/arena"
	"realloc/internal/btl"
	"realloc/internal/telemetry"
)

// BlockStore is a crash-consistent database block store: logical block
// names translate to physical extents managed by a checkpointed
// cost-oblivious reallocator. Moving a block updates the in-memory
// translation map; the durable copy is written at checkpoints, and space
// freed since the last checkpoint is never rewritten — so recovery always
// finds intact data at the addresses the durable map records.
type BlockStore struct {
	inner *btl.Store
}

// BlockStoreOption configures NewBlockStore.
type BlockStoreOption func(*btl.Config)

// BlockStoreEpsilon sets the footprint slack (default 0.25).
func BlockStoreEpsilon(eps float64) BlockStoreOption {
	return func(c *btl.Config) { c.Epsilon = eps }
}

// BlockStoreDeamortized selects the deamortized reallocator, bounding the
// work any single block write performs.
func BlockStoreDeamortized() BlockStoreOption {
	return func(c *btl.Config) { c.Deamortized = true }
}

// BlockStoreBackend selects the payload data backend (default Metered).
// With a real backend, Put stores each block's bytes at its physical
// extent, Get reads them back, and Recover verifies every durable
// block's payload checksum against the raw cells that survived the
// crash.
func BlockStoreBackend(b Backend) BlockStoreOption {
	return func(c *btl.Config) { c.Backend = arena.Kind(b) }
}

// BlockStoreDir selects durable mode: the store writes real media in
// dir — a file-backed payload arena whose dirty pages are written back
// and fsynced at every checkpoint, plus a write-ahead log of every
// placement. A store
// created with NewBlockStore truncates any state in dir; use
// OpenBlockStore to recover it instead. In durable mode Crash/Recover
// model a machine reboot (replaying the log against the surviving
// arena image), and BlockStoreBackend is ignored — payloads always
// live on media.
func BlockStoreDir(dir string) BlockStoreOption {
	return func(c *btl.Config) { c.Dir = dir }
}

// BlockStoreTelemetry arms durability telemetry: WAL group-fsync
// latencies and recovery durations land in the registry's shard-0 set
// (exported like every other histogram through the registry's
// snapshot/Prometheus surfaces).
func BlockStoreTelemetry(reg *telemetry.Registry) BlockStoreOption {
	return func(c *btl.Config) { c.Telemetry = reg.Shard(0) }
}

// BlockStoreRecovery reports what OpenBlockStore (or Recover) rebuilt.
type BlockStoreRecovery struct {
	// Recovered is the number of blocks reloaded from the last durable
	// checkpoint.
	Recovered int
	// Seq is the checkpoint sequence number recovery landed on.
	Seq uint64
	// WALTail is how many torn/uncheckpointed tail records were
	// truncated from the write-ahead log.
	WALTail int
}

// OpenBlockStore recovers a durable block store from the media a
// previous BlockStoreDir store left behind: the WAL is replayed to the
// last durable checkpoint, every surviving block's checksum is
// verified against the arena image, and the blocks are reloaded.
// Opening a directory that never held a store yields an empty store.
func OpenBlockStore(opts ...BlockStoreOption) (*BlockStore, BlockStoreRecovery, error) {
	var cfg btl.Config
	for _, o := range opts {
		o(&cfg)
	}
	inner, rep, err := btl.Open(cfg)
	if err != nil {
		return nil, BlockStoreRecovery{}, err
	}
	return &BlockStore{inner: inner},
		BlockStoreRecovery{Recovered: rep.Recovered, Seq: rep.Seq, WALTail: rep.WALTail}, nil
}

// NewBlockStore creates an empty block store.
func NewBlockStore(opts ...BlockStoreOption) (*BlockStore, error) {
	var cfg btl.Config
	for _, o := range opts {
		o(&cfg)
	}
	inner, err := btl.New(cfg)
	if err != nil {
		return nil, err
	}
	return &BlockStore{inner: inner}, nil
}

// Put creates a block holding data (size = len(data)). On a real
// backend (see BlockStoreBackend) the bytes are physically stored at
// the block's extent and follow it through every reallocation; under
// the default Metered backend only the extent bookkeeping happens.
func (s *BlockStore) Put(name string, data []byte) error { return s.inner.Put(name, data) }

// Reserve creates a block of the given size with no payload — the
// cost-model form of Put for workloads that only exercise placement.
func (s *BlockStore) Reserve(name string, size int64) error { return s.inner.Reserve(name, size) }

// Get returns a copy of a block's payload bytes; it fails unless the
// block was written through Put on a real backend.
func (s *BlockStore) Get(name string) ([]byte, error) { return s.inner.Get(name) }

// Update rewrites a block at a new size.
func (s *BlockStore) Update(name string, size int64) error { return s.inner.Update(name, size) }

// Drop deletes a block.
func (s *BlockStore) Drop(name string) error { return s.inner.Drop(name) }

// Lookup translates a block name to its current physical extent.
func (s *BlockStore) Lookup(name string) (Extent, bool) {
	e, ok := s.inner.Lookup(name)
	return Extent{Start: e.Start, Size: e.Size}, ok
}

// Len returns the number of live blocks.
func (s *BlockStore) Len() int { return s.inner.Len() }

// Footprint returns the largest allocated address in the store's
// address space — the end of the region a disk-backed deployment would
// have to provision. (Nothing here touches a disk: with a real backend
// the cells live in memory, and under Metered they are bookkeeping
// only.)
func (s *BlockStore) Footprint() int64 { return s.inner.Footprint() }

// Volume returns the total live block volume.
func (s *BlockStore) Volume() int64 { return s.inner.Volume() }

// Checkpoint durably writes the translation map and recycles freed space.
func (s *BlockStore) Checkpoint() { s.inner.Checkpoint() }

// Checkpoints returns how many checkpoints have occurred (explicit plus
// reallocator-forced).
func (s *BlockStore) Checkpoints() int64 { return s.inner.Checkpoints() }

// Crash simulates losing all volatile state.
func (s *BlockStore) Crash() { s.inner.Crash() }

// Recover rebuilds the store from the durable translation map, verifying
// every mapped block's data survived. It returns the number of blocks
// recovered; blocks created after the last checkpoint are lost (a real
// database replays its logical log to restore them). In durable mode
// (BlockStoreDir) the rebuild reads real media: WAL replay plus
// checksum verification against the arena image.
func (s *BlockStore) Recover() (int, error) {
	rep, err := s.inner.Recover()
	return rep.Recovered, err
}

// Err returns the sticky durable-I/O failure, if any: after a WAL or
// arena write fails, every operation refuses with the latched cause
// until Crash/Recover rebuilds the store from media.
func (s *BlockStore) Err() error { return s.inner.Err() }

// CheckInvariants verifies the store's cross-layer consistency: the
// reallocator's structural invariants, the name/id maps, and every
// stored payload's checksum against its current extent.
func (s *BlockStore) CheckInvariants() error { return s.inner.CheckInvariants() }

// Close releases the store's resources; in durable mode it closes the
// arena mapping and the WAL handle (without checkpointing — call
// Checkpoint first to make recent work durable).
func (s *BlockStore) Close() error { return s.inner.Close() }
