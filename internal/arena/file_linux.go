//go:build linux

package arena

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// mmapFile backs the address space with a shared file mapping: the
// mirror IS the page cache, so relocations are plain memmoves and Sync
// is msync(MS_SYNC) + fsync with no write-back copy. Growth ftruncates
// the file and remaps — MAP_SHARED means the remap sees the same pages,
// so no byte is copied on grow either.
type mmapFile struct {
	f      *os.File
	mem    []byte // len = logical size, cap = mapped (== file) size
	closed bool
	c      Counters
}

const filePage = 1 << 12

// Create builds a fresh file-backed arena at path, truncating any
// existing file.
func Create(path string) (Backend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("arena: create %s: %w", path, err)
	}
	return mapFile(f, 0)
}

// Open reopens a file-backed arena, exposing the file's current bytes
// as the address-space image (creating an empty arena if the file does
// not exist). This is the recovery path: the image is whatever the
// last completed Sync made durable, plus any later writes the crash
// happened to leave behind.
func Open(path string) (Backend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("arena: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("arena: open %s: %w", path, err)
	}
	return mapFile(f, st.Size())
}

func mapFile(f *os.File, logical int64) (Backend, error) {
	capBytes := logical
	if capBytes < filePage {
		capBytes = filePage
	}
	capBytes = (capBytes + filePage - 1) &^ (filePage - 1)
	if err := f.Truncate(capBytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("arena: size arena file: %w", err)
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, int(capBytes),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("arena: mmap arena file: %w", err)
	}
	return &mmapFile{f: f, mem: mem[:logical:capBytes]}, nil
}

func (a *mmapFile) Kind() Kind { return File }
func (a *mmapFile) Real() bool { return true }

func (a *mmapFile) Ensure(n int64) {
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
	newCap = (newCap + filePage - 1) &^ (filePage - 1)
	old := a.mem[:cap(a.mem)]
	if err := syscall.Munmap(old); err != nil {
		panic(fmt.Sprintf("arena: munmap for grow: %v", err))
	}
	a.mem = nil
	if err := a.f.Truncate(newCap); err != nil {
		panic(fmt.Sprintf("arena: grow arena file to %d bytes: %v", newCap, err))
	}
	grown, err := syscall.Mmap(int(a.f.Fd()), 0, int(newCap),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		panic(fmt.Sprintf("arena: remap to %d bytes: %v", newCap, err))
	}
	a.mem = grown[:n:len(grown)]
}

func (a *mmapFile) Copy(dst, src, size int64) {
	end := dst + size
	if se := src + size; se > end {
		end = se
	}
	a.Ensure(end)
	copy(a.mem[dst:dst+size], a.mem[src:src+size])
	a.c.BytesMoved += size
	a.c.Copies++
}

func (a *mmapFile) Bytes(start, size int64) []byte {
	a.Ensure(start + size)
	return a.mem[start : start+size : start+size]
}

func (a *mmapFile) Counters() Counters { return a.c }

// Sync flushes the mapping to media: msync(MS_SYNC) pushes the dirty
// pages to the file, fsync makes the file durable.
func (a *mmapFile) Sync() error {
	if a.closed {
		return ErrClosed
	}
	if len(a.mem) > 0 {
		_, _, errno := syscall.Syscall(syscall.SYS_MSYNC,
			uintptr(unsafe.Pointer(&a.mem[0])), uintptr(len(a.mem)), syscall.MS_SYNC)
		if errno != 0 {
			return fmt.Errorf("arena: msync: %w", errno)
		}
	}
	if err := a.f.Sync(); err != nil {
		return fmt.Errorf("arena: fsync: %w", err)
	}
	return nil
}

func (a *mmapFile) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	old := a.mem[:cap(a.mem)]
	a.mem = nil
	if len(old) > 0 {
		if err := syscall.Munmap(old); err != nil {
			a.f.Close()
			return err
		}
	}
	return a.f.Close()
}
