// Package faultfs is the injectable file layer under the durability
// stack: the WAL and the file-backed arena write through its File
// interface, so a test can put a deterministic fault plan between the
// store and its "disk" and then crash the disk at any byte.
//
// Two implementations exist. OS passes straight through to real files
// (production). MemFS models a machine with a volatile page cache over
// a durable platter: WriteAt lands in the volatile image, Sync copies
// the volatile image to the durable one, and Crash discards everything
// volatile — exactly the state a reboot would find. An Injector shared
// by all of a MemFS's files perturbs that model with the crashmonkey
// fault catalog:
//
//   - crash at the Nth write: the write never happens, the fs wedges,
//     and every later operation fails (the process is about to die);
//   - torn write: the Nth write persists only its first K bytes into
//     the durable image (the platter was mid-sector at power loss),
//     then the fs wedges;
//   - dropped fsync: the Nth sync returns success without persisting
//     anything, and — because a disk whose cache stopped draining
//     never drains again — every later sync on every file is silently
//     dropped too. This global semantics is what makes the fault
//     survivable: the durable image can never run ahead of the lie.
//   - transient EIO: the Nth write fails once with syscall.EIO and
//     succeeds when retried (the writer above owns retry/backoff);
//   - full disk: from the Nth write on, every write fails with
//     syscall.ENOSPC and nothing lands, until the crash.
//
// MemFS also models the directory: a file created since the last
// SyncDir loses its entry at a crash, contents and all, as a newly
// created file can after a power loss.
//
// Write and sync counters are global across a MemFS's files, so a plan
// addresses the interleaved stream the store actually emits, and plans
// derived from a seed (RandomPlan) are reproducible byte for byte. The
// one place the store overlaps I/O, a checkpoint's two sync legs, goes
// through FS.Both: concurrent on OS, in a fixed order on MemFS, so the
// stream stays reproducible there too.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
)

// Errors reported by the layer.
var (
	// ErrInjectedCrash is returned by the operation a fault plan chose
	// as the crash point; the file system is wedged afterwards.
	ErrInjectedCrash = errors.New("faultfs: injected crash")
	// ErrCrashed is returned by every operation on a handle that
	// predates a crash (injected or explicit): the process holding it
	// is, as far as the model is concerned, dead.
	ErrCrashed = errors.New("faultfs: file system crashed")
)

// File is the byte-addressed file surface the durability stack writes
// through — deliberately the subset of *os.File the WAL and arena need,
// so a fault-injecting implementation can sit in for the real thing.
type File interface {
	io.ReaderAt
	io.WriterAt
	// Sync flushes everything written so far to durable storage.
	Sync() error
	// Truncate resizes the file; replay uses it to cut a torn tail.
	Truncate(size int64) error
	// Size reports the current file length.
	Size() (int64, error)
	Close() error
}

// FS opens named files, creating them when absent.
type FS interface {
	OpenFile(name string) (File, error)
	Remove(name string) error
	// SyncDir makes the directory durable: every file created so far
	// survives a crash (its contents only as far as its own Syncs).
	SyncDir() error
	// Both runs two independent I/O legs — the block store's WAL
	// fsync and its arena write-back — to completion and returns
	// errors.Join of their errors. OS runs them concurrently. MemFS
	// runs first, then second, whatever first returned, so a fault
	// plan's write and sync ordinals do not depend on scheduling.
	Both(first, second func() error) error
}

// ---------------------------------------------------------------------
// OS: the pass-through implementation.

// OS is the real file system rooted at Dir ("" = process cwd).
type OS struct{ Dir string }

func (o OS) path(name string) string {
	if o.Dir == "" {
		return name
	}
	return filepath.Join(o.Dir, name)
}

// OpenFile opens (or creates) the named file read-write.
func (o OS) OpenFile(name string) (File, error) {
	f, err := os.OpenFile(o.path(name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Remove deletes the named file.
func (o OS) Remove(name string) error { return os.Remove(o.path(name)) }

// SyncDir fsyncs the directory. Windows cannot open a directory for
// fsync; NTFS journals its metadata, so there it is a no-op.
func (o OS) SyncDir() error {
	if runtime.GOOS == "windows" {
		return nil
	}
	dir := o.Dir
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// Both runs first on its own goroutine while second runs on the
// caller's, and returns once both have. The block store passes its
// longer leg, the arena's, second: the caller then seldom finishes
// first and parks, so it seldom resumes on another thread with cold
// caches.
func (OS) Both(first, second func() error) error {
	done := make(chan error, 1)
	go func() { done <- first() }()
	err := second()
	return errors.Join(<-done, err)
}

// osFile adapts *os.File, mapping short reads at EOF to the full-buffer
// contract replay relies on (ReadAt already does; Size via Stat).
type osFile struct{ f *os.File }

func (o osFile) ReadAt(p []byte, off int64) (int, error)  { return o.f.ReadAt(p, off) }
func (o osFile) WriteAt(p []byte, off int64) (int, error) { return o.f.WriteAt(p, off) }
func (o osFile) Sync() error                              { return o.f.Sync() }
func (o osFile) Truncate(size int64) error                { return o.f.Truncate(size) }
func (o osFile) Close() error                             { return o.f.Close() }
func (o osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// ---------------------------------------------------------------------
// Fault plans.

// FaultKind names one entry of the catalog.
type FaultKind int

const (
	// CrashAtWrite wedges the fs at the Nth global write; the write
	// does not happen.
	CrashAtWrite FaultKind = iota
	// TornWrite persists only the first TearBytes of the Nth global
	// write into the durable image, then wedges the fs. Once a DropSync
	// has fired the durable image is frozen, so a later torn write
	// degenerates to CrashAtWrite: a fragment that persisted while
	// every sync since the drop did not would model a lying drive
	// flushing its cache out of order, which no log protocol recovers
	// from.
	TornWrite
	// DropSync makes the Nth global sync (and, silently, every sync
	// after it) a successful no-op.
	DropSync
	// TransientEIO fails the Nth global write once with syscall.EIO;
	// the retried write proceeds normally.
	TransientEIO
	// NoSpace fills the disk at the Nth global write: it and every
	// later write fail with syscall.ENOSPC and nothing lands, until
	// Crash. Syncs still persist what landed before.
	NoSpace
)

func (k FaultKind) String() string {
	switch k {
	case CrashAtWrite:
		return "crashAtWrite"
	case TornWrite:
		return "tornWrite"
	case DropSync:
		return "dropSync"
	case TransientEIO:
		return "transientEIO"
	case NoSpace:
		return "noSpace"
	default:
		return "unknown"
	}
}

// Fault is one planned perturbation, addressed by the global write or
// sync ordinal (1-based) it fires at.
type Fault struct {
	Kind FaultKind
	// N is the 1-based global ordinal (write ordinal for CrashAtWrite,
	// TornWrite, TransientEIO, NoSpace; sync ordinal for DropSync).
	N int
	// TearBytes is how many leading bytes of the faulted write persist
	// (TornWrite only); clamped to the write's length.
	TearBytes int64
}

func (f Fault) String() string { return fmt.Sprintf("%s@%d(tear=%d)", f.Kind, f.N, f.TearBytes) }

// Injector applies a fault plan to the global write/sync stream of a
// MemFS. The zero value injects nothing and only counts, which is how
// a harness measures a workload's fault-point space before enumerating
// it.
type Injector struct {
	mu     sync.Mutex
	plan   []Fault
	writes int
	syncs  int
	// wedged: a crash fault fired; every later op fails.
	wedged bool
	// dropping: a DropSync fired; every later sync is a silent no-op.
	dropping bool
	// full: a NoSpace fired; every later write fails with ENOSPC.
	full bool
	// fired counts faults that actually triggered.
	fired int
}

// NewInjector builds an injector over a plan. Faults sharing an ordinal
// fire in plan order (in practice plans use distinct ordinals).
func NewInjector(plan ...Fault) *Injector { return &Injector{plan: plan} }

// Writes returns how many global writes have been attempted.
func (in *Injector) Writes() int { in.mu.Lock(); defer in.mu.Unlock(); return in.writes }

// Syncs returns how many global syncs have been attempted.
func (in *Injector) Syncs() int { in.mu.Lock(); defer in.mu.Unlock(); return in.syncs }

// Fired returns how many planned faults have triggered.
func (in *Injector) Fired() int { in.mu.Lock(); defer in.mu.Unlock(); return in.fired }

// Wedged reports whether a crash fault has fired.
func (in *Injector) Wedged() bool { in.mu.Lock(); defer in.mu.Unlock(); return in.wedged }

// Dropping reports whether syncs are currently being dropped.
func (in *Injector) Dropping() bool { in.mu.Lock(); defer in.mu.Unlock(); return in.dropping }

// writeDecision is what the write path must do.
type writeDecision int

const (
	writeOK writeDecision = iota
	writeCrash
	writeTorn
	writeEIO
	writeNoSpace
	writeWedged
)

// onWrite advances the write counter and reports the decision plus the
// tear length when the decision is writeTorn.
func (in *Injector) onWrite() (writeDecision, int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.wedged {
		return writeWedged, 0
	}
	in.writes++
	if in.full {
		return writeNoSpace, 0
	}
	for i := range in.plan {
		f := &in.plan[i]
		if f.N != in.writes {
			continue
		}
		switch f.Kind {
		case CrashAtWrite:
			in.wedged = true
			in.fired++
			return writeCrash, 0
		case TornWrite:
			in.wedged = true
			in.fired++
			if in.dropping {
				// The platter is frozen: the tear dies in cache with
				// everything else since the dropped sync.
				return writeCrash, 0
			}
			return writeTorn, f.TearBytes
		case TransientEIO:
			// Consume the fault so the retried write (the next global
			// ordinal) proceeds.
			f.N = -1
			in.fired++
			return writeEIO, 0
		case NoSpace:
			in.full = true
			in.fired++
			return writeNoSpace, 0
		}
	}
	return writeOK, 0
}

// onSync advances the sync counter and reports whether the sync should
// actually persist.
func (in *Injector) onSync() (persist bool, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.wedged {
		return false, ErrCrashed
	}
	in.syncs++
	if in.dropping {
		return false, nil
	}
	for i := range in.plan {
		f := &in.plan[i]
		if f.Kind == DropSync && f.N == in.syncs {
			in.dropping = true
			in.fired++
			return false, nil
		}
	}
	return true, nil
}

// RandomPlan derives a reproducible fault plan from a seed: one to
// three faults addressed inside the given write/sync budget. Torn
// writes tear at a random byte of a nominal frame; the tear clamps to
// the faulted write's length when it fires.
func RandomPlan(seed uint64, maxWrites, maxSyncs int) []Fault {
	rng := rand.New(rand.NewPCG(seed, 0xfa017))
	if maxWrites < 1 {
		maxWrites = 1
	}
	if maxSyncs < 1 {
		maxSyncs = 1
	}
	n := 1 + rng.IntN(3)
	plan := make([]Fault, 0, n)
	for i := 0; i < n; i++ {
		switch rng.IntN(4) {
		case 0:
			plan = append(plan, Fault{Kind: CrashAtWrite, N: 1 + rng.IntN(maxWrites)})
		case 1:
			plan = append(plan, Fault{Kind: TornWrite, N: 1 + rng.IntN(maxWrites), TearBytes: rng.Int64N(64)})
		case 2:
			plan = append(plan, Fault{Kind: DropSync, N: 1 + rng.IntN(maxSyncs)})
		default:
			plan = append(plan, Fault{Kind: TransientEIO, N: 1 + rng.IntN(maxWrites)})
		}
	}
	return plan
}

// ---------------------------------------------------------------------
// MemFS: the crashable in-memory implementation.

// MemFS is a crashable in-memory file system. Files persist across
// Crash (their durable images do); handles do not. The zero value is
// not usable — construct with NewMemFS.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memData
	inj   *Injector
	gen   int
}

// memData is one file's two images, plus whether its directory entry
// is durable (a SyncDir ran since it was created).
type memData struct {
	durable  []byte
	volatile []byte
	linked   bool
}

// NewMemFS builds an empty crashable fs. inj may be nil (no faults).
func NewMemFS(inj *Injector) *MemFS {
	if inj == nil {
		inj = &Injector{}
	}
	return &MemFS{files: map[string]*memData{}, inj: inj}
}

// Injector returns the shared injector (never nil).
func (fs *MemFS) Injector() *Injector { return fs.inj }

// Crash discards every file's volatile image — unsynced writes are
// gone, torn fragments stay — drops every file created since the last
// SyncDir, and invalidates all open handles. The injector's wedge is
// cleared so the "rebooted machine" can run again; its dropped-sync
// and full-disk states clear too (a reboot resets the disk cache, and
// the operator has made room).
func (fs *MemFS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for name, d := range fs.files {
		if !d.linked {
			delete(fs.files, name)
			continue
		}
		d.volatile = append([]byte(nil), d.durable...)
	}
	fs.gen++
	fs.inj.mu.Lock()
	fs.inj.wedged = false
	fs.inj.dropping = false
	fs.inj.full = false
	fs.inj.mu.Unlock()
}

// SyncDir makes every existing file's directory entry durable. It is
// one sync of the Injector's global stream: a DropSync addressed to it
// (or fired before it) leaves the entries volatile.
func (fs *MemFS) SyncDir() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	persist, err := fs.inj.onSync()
	if err != nil || !persist {
		return err
	}
	for _, d := range fs.files {
		d.linked = true
	}
	return nil
}

// Both runs first, then second. The fixed order keeps the Injector's
// ordinals reproducible; it is one of the interleavings OS allows, and
// the one that leaves the store's checkpoint marker durable before any
// of its arena pages.
func (fs *MemFS) Both(first, second func() error) error {
	err := first()
	return errors.Join(err, second())
}

// OpenFile opens (or creates) the named file. The handle is bound to
// the current crash generation: a later Crash invalidates it.
func (fs *MemFS) OpenFile(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, ok := fs.files[name]
	if !ok {
		d = &memData{}
		fs.files[name] = d
	}
	return &memFile{fs: fs, data: d, gen: fs.gen}, nil
}

// Remove deletes the named file outright (both images).
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return os.ErrNotExist
	}
	delete(fs.files, name)
	return nil
}

// DurableLen reports the named file's durable image length (tests).
func (fs *MemFS) DurableLen(name string) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if d, ok := fs.files[name]; ok {
		return int64(len(d.durable))
	}
	return 0
}

// memFile is one handle over a MemFS file.
type memFile struct {
	fs   *MemFS
	data *memData
	gen  int
}

// stale reports whether the handle predates a crash.
func (f *memFile) stale() bool { return f.gen != f.fs.gen }

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.stale() {
		return 0, ErrCrashed
	}
	if off >= int64(len(f.data.volatile)) {
		return 0, io.EOF
	}
	n := copy(p, f.data.volatile[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// grow extends b with zeros to length n (sparse-file semantics).
func grow(b []byte, n int64) []byte {
	for int64(len(b)) < n {
		b = append(b, make([]byte, n-int64(len(b)))...)
	}
	return b
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	if f.stale() {
		f.fs.mu.Unlock()
		return 0, ErrCrashed
	}
	dec, tear := f.fs.inj.onWrite()
	switch dec {
	case writeCrash:
		f.fs.mu.Unlock()
		return 0, ErrInjectedCrash
	case writeWedged:
		f.fs.mu.Unlock()
		return 0, ErrCrashed
	case writeEIO:
		f.fs.mu.Unlock()
		return 0, syscall.EIO
	case writeNoSpace:
		f.fs.mu.Unlock()
		return 0, syscall.ENOSPC
	case writeTorn:
		if tear > int64(len(p)) {
			tear = int64(len(p))
		}
		f.data.durable = grow(f.data.durable, off+tear)
		copy(f.data.durable[off:off+tear], p[:tear])
		f.fs.mu.Unlock()
		return 0, ErrInjectedCrash
	}
	f.data.volatile = grow(f.data.volatile, off+int64(len(p)))
	copy(f.data.volatile[off:], p)
	f.fs.mu.Unlock()
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.stale() {
		return ErrCrashed
	}
	persist, err := f.fs.inj.onSync()
	if err != nil {
		return err
	}
	if persist {
		f.data.durable = append(f.data.durable[:0], f.data.volatile...)
	}
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.stale() {
		return ErrCrashed
	}
	if size < 0 {
		return fmt.Errorf("faultfs: truncate to %d", size)
	}
	if size <= int64(len(f.data.volatile)) {
		f.data.volatile = f.data.volatile[:size]
	} else {
		f.data.volatile = grow(f.data.volatile, size)
	}
	return nil
}

func (f *memFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.stale() {
		return 0, ErrCrashed
	}
	return int64(len(f.data.volatile)), nil
}

func (f *memFile) Close() error { return nil }
