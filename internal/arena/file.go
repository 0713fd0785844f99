package arena

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"path/filepath"
	"syscall"
	"time"

	"realloc/internal/faultfs"
)

// fileArena is the file backend. The address space's bytes live in
// memory — in the backend newMmap returns, an anonymous mapping on unix
// and the heap elsewhere — and Sync writes back to the file only the
// pages written since the previous Sync, then fsyncs. FromFile accepts
// any faultfs.File, so production (Create over real files) and the
// crash harness (MemFS handles whose writes and syncs an Injector can
// crash, tear, drop or fill) run the same code.
//
// Nothing reaches the file between Syncs: only bytes covered by a
// completed Sync are promised to survive, which is the durability
// contract the checkpoint protocol assumes.
type fileArena struct {
	Backend // the in-memory image
	f       faultfs.File
	// size is the arena's length (the highest address made
	// addressable); fileLen is how far Sync has extended the file.
	size, fileLen int64
	// dirty holds one bit per page written since the last successful
	// Sync: Copy marks its destination, Bytes its range (the slice it
	// returns is writable).
	dirty  []uint64
	closed bool
}

// pageSize is the write-back granularity.
const pageSize = 1 << 12

// Sync write-back retries a transient EIO this many times, doubling
// the delay from syncRetryDelay, as the WAL writer does.
const (
	syncRetries    = 5
	syncRetryDelay = time.Millisecond
)

// Create builds a fresh file-backed arena at path, truncating any
// existing file.
func Create(path string) (Backend, error) {
	f, err := faultfs.OS{Dir: filepath.Dir(path)}.OpenFile(filepath.Base(path))
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, err
	}
	b, err := FromFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return b, nil
}

// FromFile builds a file backend over an already-open file, loading
// any existing content as the initial address-space image. The arena
// takes ownership of the handle: Close closes it.
func FromFile(f faultfs.File) (Backend, error) {
	sz, err := f.Size()
	if err != nil {
		return nil, fmt.Errorf("arena: file size: %w", err)
	}
	mem, err := newMmap()
	if err != nil {
		return nil, err
	}
	if sz > 0 {
		if n, err := f.ReadAt(mem.Bytes(0, sz), 0); err != nil && !(errors.Is(err, io.EOF) && int64(n) == sz) {
			mem.Close()
			return nil, fmt.Errorf("arena: load file image: %w", err)
		}
	}
	return &fileArena{Backend: mem, f: f, size: sz, fileLen: sz}, nil
}

func (a *fileArena) Kind() Kind { return File }

func (a *fileArena) Ensure(n int64) {
	a.Backend.Ensure(n)
	a.size = max(a.size, n)
}

func (a *fileArena) Copy(dst, src, size int64) {
	a.Backend.Copy(dst, src, size)
	a.size = max(a.size, dst+size, src+size)
	a.mark(dst, dst+size)
}

func (a *fileArena) Bytes(start, size int64) []byte {
	b := a.Backend.Bytes(start, size)
	a.size = max(a.size, start+size)
	a.mark(start, start+size)
	return b
}

// mark sets the dirty bit of every page [start, end) touches.
func (a *fileArena) mark(start, end int64) {
	if start >= end {
		return
	}
	first, last := start/pageSize, (end-1)/pageSize
	if w := int(last/64) + 1; w > len(a.dirty) {
		a.dirty = append(a.dirty, make([]uint64, w-len(a.dirty))...)
	}
	for p := first; p <= last; p++ {
		a.dirty[p/64] |= 1 << (p % 64)
	}
}

// scan returns the first page at or after p whose dirty bit is want,
// or the bitmap's page count when there is none.
func (a *fileArena) scan(p int64, want bool) int64 {
	mask := ^uint64(0) << (p % 64) // drop the bits below p in its word
	for w := p / 64; w < int64(len(a.dirty)); w++ {
		word := a.dirty[w]
		if !want {
			word = ^word
		}
		if word &= mask; word != 0 {
			return w*64 + int64(bits.TrailingZeros64(word))
		}
		mask = ^uint64(0)
	}
	return int64(len(a.dirty)) * 64
}

// Sync makes the arena durable: it writes each maximal run of dirty
// pages, extends the file to the arena's length if the arena grew (an
// extent placed past every written page must still lie inside the
// image a reader loads), fsyncs, and only then clears the dirty set —
// a failed Sync leaves every page dirty for the next one. Only a
// transient EIO on a write is retried; the injected crash sentinel,
// ENOSPC and any other error are final (the caller treats the
// checkpoint as failed).
func (a *fileArena) Sync() error {
	if a.closed {
		return ErrClosed
	}
	for p := a.scan(0, true); p < int64(len(a.dirty))*64; {
		q := a.scan(p, false)
		start, end := p*pageSize, min(q*pageSize, a.size)
		if err := a.writeAt(a.Backend.Bytes(start, end-start), start); err != nil {
			return fmt.Errorf("arena: sync write-back: %w", err)
		}
		p = a.scan(q, true)
	}
	if a.size > a.fileLen {
		if err := a.f.Truncate(a.size); err != nil {
			return fmt.Errorf("arena: extend file: %w", err)
		}
		a.fileLen = a.size
	}
	if err := a.f.Sync(); err != nil {
		return fmt.Errorf("arena: fsync: %w", err)
	}
	clear(a.dirty)
	return nil
}

// writeAt is one write-back WriteAt with the transient-EIO retry loop.
func (a *fileArena) writeAt(p []byte, off int64) error {
	delay := syncRetryDelay
	for attempt := 0; ; attempt++ {
		_, err := a.f.WriteAt(p, off)
		if err == nil || !errors.Is(err, syscall.EIO) || errors.Is(err, faultfs.ErrInjectedCrash) || attempt >= syncRetries {
			return err
		}
		time.Sleep(delay)
		delay *= 2
	}
}

func (a *fileArena) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	a.dirty = nil
	return errors.Join(a.Backend.Close(), a.f.Close())
}
