//go:build unix

package arena

import (
	"fmt"
	"syscall"
)

// mmapArena backs the address space with an anonymous private mapping.
// Growth maps a larger region, memmoves the live prefix across, and
// unmaps the old one — the arena analogue of the heap backend's slice
// regrow, but with memory the Go garbage collector never scans, which
// is the point: a multi-gigabyte payload arena adds nothing to GC mark
// time.
type mmapArena struct {
	mem    []byte
	closed bool
	c      Counters
}

// mmapInitial is the first mapping's size. One page keeps empty arenas
// nearly free; growth doubles from here.
const mmapInitial = 1 << 12

func newMmap() (Backend, error) {
	mem, err := syscall.Mmap(-1, 0, mmapInitial,
		syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("arena: mmap: %w", err)
	}
	return &mmapArena{mem: mem[:0:len(mem)]}, nil
}

func (a *mmapArena) Kind() Kind { return Mmap }
func (a *mmapArena) Real() bool { return true }

func (a *mmapArena) Ensure(n int64) {
	if a.closed {
		panic(ErrClosed)
	}
	if n <= int64(len(a.mem)) {
		return
	}
	if n <= int64(cap(a.mem)) {
		a.mem = a.mem[:n]
		return
	}
	newCap := int64(cap(a.mem)) * 2
	if newCap < n {
		newCap = n
	}
	// Round up to a page multiple.
	const page = 1 << 12
	newCap = (newCap + page - 1) &^ (page - 1)
	grown, err := syscall.Mmap(-1, 0, int(newCap),
		syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("arena: mmap grow to %d bytes: %v", newCap, err))
	}
	copy(grown, a.mem)
	old := a.mem[:cap(a.mem)]
	a.mem = grown[:n:len(grown)]
	if len(old) > 0 {
		if err := syscall.Munmap(old); err != nil {
			panic(fmt.Sprintf("arena: munmap: %v", err))
		}
	}
}

func (a *mmapArena) Copy(dst, src, size int64) {
	end := dst + size
	if se := src + size; se > end {
		end = se
	}
	a.Ensure(end)
	copy(a.mem[dst:dst+size], a.mem[src:src+size])
	a.c.BytesMoved += size
	a.c.Copies++
}

func (a *mmapArena) Bytes(start, size int64) []byte {
	a.Ensure(start + size)
	return a.mem[start : start+size : start+size]
}

func (a *mmapArena) Counters() Counters { return a.c }

func (a *mmapArena) Sync() error {
	if a.closed {
		return ErrClosed
	}
	return nil // anonymous mapping: no backing media to flush
}

func (a *mmapArena) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	old := a.mem[:cap(a.mem)]
	a.mem = nil
	if len(old) == 0 {
		return nil
	}
	return syscall.Munmap(old)
}
