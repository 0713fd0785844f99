// Package arena provides the pluggable payload-byte backends the
// address-space substrate writes through. The reallocation algorithms
// above it are cost-oblivious: they decide *which* extents move and the
// substrate decides *what moving costs*. A backend makes that cost real
// — every relocation memmoves the object's bytes — or keeps it metered,
// counting the bytes a real backend would have touched without touching
// any.
//
// One cell of the simulated address space is one byte of the backend,
// so the paper's moved-volume meter and a backend's BytesMoved counter
// are directly comparable: on the same op stream a metered run and a
// heap run report identical BytesMoved. A backend counts and never reads
// a clock: what the copies cost in wall-clock is timed by the caller,
// once per chunk of moves (addrspace.Space.MoveNanos), so the fixed cost
// of a copy is the memmove's own. The E17 experiment builds its
// metered-cells vs measured-bytes/ns table from those two sources.
//
// The file backend keeps its bytes in memory too and adds a backing
// file: Sync writes back only the pages written since the last Sync,
// then fsyncs. No backend maps a file, so a full disk surfaces as an
// error from Sync, never as a fault inside a copy.
//
// Backends are not safe for concurrent use; the engine serializes all
// access (the facades' locks extend over payload reads and writes). A
// large RAM flush plan that nothing observes runs its copies on a second
// goroutine while the caller commits the index and then waits for them,
// so the backend still has one user at a time, and the caller's lock is
// held throughout.
package arena

import (
	"errors"
	"fmt"
)

// ErrClosed is the use-after-Close sentinel. Payload access on a
// closed backend panics with this value (Copy, Bytes and View sit on
// the relocation and read hot paths and have no error returns — a
// closed arena there is a lifecycle bug, and a sentinel panic beats the
// opaque nil-index or SIGSEGV it would otherwise decay to); Sync, which
// is on an error path anyway, returns it.
var ErrClosed = errors.New("arena: use after Close")

// Kind names a backend implementation.
type Kind int

const (
	// Metered is the no-op backend: relocations only count the bytes
	// they would move. This is the default and preserves the behavior
	// the repo had before backends existed.
	Metered Kind = iota
	// Heap backs the address space with a growable Go byte slice;
	// relocations pay real memmoves.
	Heap
	// Mmap backs the address space with an anonymous memory mapping
	// (falling back to the heap on platforms without mmap).
	Mmap
	// File keeps the address space in memory, as Mmap does, over a
	// backing file: Sync writes the pages dirtied since the last Sync
	// to the file and fsyncs it. A File backend needs a file:
	// construct it with Create or FromFile, not New.
	File
)

func (k Kind) String() string {
	switch k {
	case Metered:
		return "metered"
	case Heap:
		return "heap"
	case Mmap:
		return "mmap"
	case File:
		return "file"
	default:
		return "unknown"
	}
}

// ParseKind resolves a backend name (as printed by Kind.String).
func ParseKind(s string) (Kind, error) {
	for _, k := range []Kind{Metered, Heap, Mmap} {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown backend %q (valid: metered, heap, mmap)", s)
}

// Counters is a backend's cumulative cost accounting.
type Counters struct {
	// BytesMoved is the total payload volume relocations have copied
	// (or, for the metered backend, would have copied).
	BytesMoved int64
	// Copies is the number of relocations executed.
	Copies int64
}

// Backend is one payload store over the flat address space. dst/src/
// start are cell addresses; one cell is one byte. Copy counts bytes and
// copies but reads no clock; callers that want wall-clock time one loop
// of copies, not each copy.
//
// Growth never fails softly: a real backend that cannot obtain memory
// panics (address-space exhaustion is not recoverable for an arena),
// which keeps Copy and Bytes off the error paths of the relocation hot
// loops.
type Backend interface {
	// Kind reports the implementation.
	Kind() Kind
	// Real reports whether payload bytes physically exist. The metered
	// backend returns false; payload access is then unavailable.
	Real() bool
	// Ensure grows the store so addresses [0, n) are addressable.
	Ensure(n int64)
	// Copy relocates size bytes from src to dst with memmove semantics
	// (overlap between source and destination is fine), growing the
	// store as needed, and counts the move.
	Copy(dst, src, size int64)
	// Bytes returns the live byte slice for [start, start+size),
	// growing the store as needed. The slice aliases backend memory
	// and is invalidated by the next operation that can grow or
	// relocate the store. Nil for backends that are not Real. The
	// slice is writable, so the file backend counts the range as
	// written.
	Bytes(start, size int64) []byte
	// View is Bytes for reading: the same slice, but it neither grows
	// the store (the range must be addressable already, as every
	// placed extent is) nor counts as a write, so the caller must not
	// write through it — the file backend would never write those
	// bytes back.
	View(start, size int64) []byte
	// Counters returns the cumulative cost accounting.
	Counters() Counters
	// Sync flushes payload bytes to durable media: the file backend
	// writes back the pages dirtied since its last Sync and fsyncs;
	// memory-only backends return nil. After Close it returns
	// ErrClosed.
	Sync() error
	// Close releases backend resources. Close is idempotent; any other
	// use of a closed backend fails fast — payload access panics with
	// ErrClosed, Sync returns it.
	Close() error
}

// New builds a backend of the given kind.
func New(k Kind) (Backend, error) {
	switch k {
	case Metered:
		return &metered{}, nil
	case Heap:
		return &heap{}, nil
	case Mmap:
		return newMmap()
	case File:
		return nil, errors.New("arena: the file backend needs a file; use Create or FromFile")
	default:
		return nil, fmt.Errorf("arena: unknown kind %d", int(k))
	}
}

// metered counts what a real backend would do, and does nothing else.
type metered struct {
	c      Counters
	closed bool
}

func (m *metered) Kind() Kind { return Metered }
func (m *metered) Real() bool { return false }
func (m *metered) Ensure(int64) {
	if m.closed {
		panic(ErrClosed)
	}
}
func (m *metered) Copy(dst, src, size int64) {
	if m.closed {
		panic(ErrClosed)
	}
	m.c.BytesMoved += size
	m.c.Copies++
}
func (m *metered) Bytes(start, size int64) []byte {
	if m.closed {
		panic(ErrClosed)
	}
	return nil
}
func (m *metered) View(start, size int64) []byte {
	if m.closed {
		panic(ErrClosed)
	}
	return nil
}
func (m *metered) Counters() Counters { return m.c }
func (m *metered) Sync() error {
	if m.closed {
		return ErrClosed
	}
	return nil
}
func (m *metered) Close() error { m.closed = true; return nil }

// heap is the growable-slice backend.
type heap struct {
	mem    []byte
	closed bool
	c      Counters
}

func (h *heap) Kind() Kind { return Heap }
func (h *heap) Real() bool { return true }

func (h *heap) Ensure(n int64) {
	if h.closed {
		panic(ErrClosed)
	}
	if n <= int64(len(h.mem)) {
		return
	}
	// Grow geometrically so a sequence of one-past-the-end placements
	// costs amortized O(1) byte of copying per byte of growth.
	newLen := int64(len(h.mem)) * 2
	if newLen < n {
		newLen = n
	}
	grown := make([]byte, newLen)
	copy(grown, h.mem)
	h.mem = grown
}

func (h *heap) Copy(dst, src, size int64) {
	end := dst + size
	if se := src + size; se > end {
		end = se
	}
	h.Ensure(end)
	copy(h.mem[dst:dst+size], h.mem[src:src+size])
	h.c.BytesMoved += size
	h.c.Copies++
}

func (h *heap) Bytes(start, size int64) []byte {
	h.Ensure(start + size)
	return h.mem[start : start+size : start+size]
}

func (h *heap) View(start, size int64) []byte {
	if h.closed {
		panic(ErrClosed)
	}
	return h.mem[start : start+size : start+size]
}

func (h *heap) Counters() Counters { return h.c }
func (h *heap) Sync() error {
	if h.closed {
		return ErrClosed
	}
	return nil
}
func (h *heap) Close() error { h.mem = nil; h.closed = true; return nil }
