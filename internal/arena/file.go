package arena

import (
	"errors"
	"fmt"
	"io"
	"syscall"
	"time"

	"realloc/internal/faultfs"
)

// fileArena is the plain-I/O file backend: a heap mirror of the
// address space plus a backing file that Sync rewrites and fsyncs. It
// serves two roles — the portable fallback where file-backed mmap is
// unavailable, and the fault-injection seam (FromFile accepts any
// faultfs.File, including MemFS handles whose writes and syncs an
// Injector can crash, tear, or drop).
//
// Between Syncs the file lags the mirror arbitrarily, which is exactly
// the durability contract the checkpoint protocol assumes: only bytes
// covered by a completed Sync are promised to survive.
type fileArena struct {
	f      faultfs.File
	mem    []byte
	closed bool
	c      Counters
	// retries/retryDelay govern the transient-EIO retry loop on the
	// Sync write-back, mirroring the WAL writer's policy.
	retries    int
	retryDelay time.Duration
}

// FromFile builds a file backend over an already-open file, loading
// any existing content as the initial address-space image. The arena
// takes ownership of the handle: Close closes it.
func FromFile(f faultfs.File) (Backend, error) {
	sz, err := f.Size()
	if err != nil {
		return nil, fmt.Errorf("arena: file size: %w", err)
	}
	mem := make([]byte, sz)
	if sz > 0 {
		if n, err := f.ReadAt(mem, 0); err != nil && !(errors.Is(err, io.EOF) && int64(n) == sz) {
			return nil, fmt.Errorf("arena: load file image: %w", err)
		}
	}
	return &fileArena{f: f, mem: mem, retries: 5, retryDelay: time.Millisecond}, nil
}

func (a *fileArena) Kind() Kind { return File }
func (a *fileArena) Real() bool { return true }

func (a *fileArena) Ensure(n int64) {
	if a.closed {
		panic(ErrClosed)
	}
	if n <= int64(len(a.mem)) {
		return
	}
	newLen := int64(len(a.mem)) * 2
	if newLen < n {
		newLen = n
	}
	grown := make([]byte, newLen)
	copy(grown, a.mem)
	a.mem = grown
}

func (a *fileArena) Copy(dst, src, size int64) {
	end := dst + size
	if se := src + size; se > end {
		end = se
	}
	a.Ensure(end)
	copy(a.mem[dst:dst+size], a.mem[src:src+size])
	a.c.BytesMoved += size
	a.c.Copies++
}

func (a *fileArena) Bytes(start, size int64) []byte {
	a.Ensure(start + size)
	return a.mem[start : start+size : start+size]
}

func (a *fileArena) Counters() Counters { return a.c }

// Sync writes the mirror back to the file and fsyncs it. A transient
// EIO on the write-back is retried with doubling backoff; the injected
// crash sentinel and any other error are final (the caller treats the
// checkpoint as failed).
func (a *fileArena) Sync() error {
	if a.closed {
		return ErrClosed
	}
	if len(a.mem) > 0 {
		delay := a.retryDelay
		var err error
		for attempt := 0; ; attempt++ {
			_, err = a.f.WriteAt(a.mem, 0)
			if err == nil {
				break
			}
			if !errors.Is(err, syscall.EIO) || errors.Is(err, faultfs.ErrInjectedCrash) || attempt >= a.retries {
				return fmt.Errorf("arena: sync write-back: %w", err)
			}
			if delay > 0 {
				time.Sleep(delay)
			}
			delay *= 2
		}
	}
	if err := a.f.Sync(); err != nil {
		return fmt.Errorf("arena: fsync: %w", err)
	}
	return nil
}

func (a *fileArena) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	a.mem = nil
	return a.f.Close()
}
