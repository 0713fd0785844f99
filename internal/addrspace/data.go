package addrspace

import (
	"fmt"
	"time"

	"realloc/internal/arena"
)

// This file is the payload surface of the substrate: per-object byte
// access over the arena backend the space was configured with. Both
// relocation paths (per-move Move and move-session chunks) keep the
// backend coherent with the index — whatever bytes an object holds, a
// flush carries them to the object's new extent — so these accessors
// always address the object's *current* placement.

// Data exposes the payload backend (nil for index-only spaces). Callers
// use it for counters and for raw extent access during recovery; all
// object-relative access should go through WriteData/ReadData/DataBytes.
func (s *Space) Data() arena.Backend { return s.data }

// HasData reports whether the space has a real payload backend: one that
// physically stores bytes, as opposed to the metered backend or none.
func (s *Space) HasData() bool { return s.data != nil && s.data.Real() }

// MoveNanos returns the cumulative wall-clock nanoseconds move sessions
// spent in their move loops on a real backend: one clock pair per Advance
// chunk, whole-plan or partial, covering the memmoves together with the
// per-move bookkeeping and observer callbacks around them. No clock is
// read per copy, per-move Move is not timed, and a space without real
// bytes (metered or index-only) stays at 0.
func (s *Space) MoveNanos() int64 { return s.moveNanos }

// moveClock starts timing one move loop: the current time on a real
// backend, the zero Time (nothing to time) otherwise.
func (s *Space) moveClock() time.Time {
	if !s.HasData() {
		return time.Time{}
	}
	return time.Now()
}

// addMoveTime charges the loop started at t0 to MoveNanos; a zero t0
// (untimed loop) reads no clock.
func (s *Space) addMoveTime(t0 time.Time) {
	if !t0.IsZero() {
		s.moveNanos += int64(time.Since(t0))
	}
}

// WriteData copies p into object id's payload, starting at the object's
// first cell. len(p) must not exceed the object's size.
func (s *Space) WriteData(id ID, p []byte) error {
	ext, ok := s.Extent(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	if !s.HasData() {
		return ErrNoData
	}
	if int64(len(p)) > ext.Size {
		return fmt.Errorf("addrspace: write of %d bytes into object %d of size %d", len(p), id, ext.Size)
	}
	copy(s.data.Bytes(ext.Start, int64(len(p))), p)
	return nil
}

// ReadData copies object id's payload into p, starting at the object's
// first cell, and returns how many bytes were copied: min(len(p), size).
// It reads through the backend's View, so a file backend writes nothing
// back for it.
func (s *Space) ReadData(id ID, p []byte) (int, error) {
	ext, ok := s.Extent(id)
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	if !s.HasData() {
		return 0, ErrNoData
	}
	n := int64(len(p))
	if n > ext.Size {
		n = ext.Size
	}
	copy(p[:n], s.data.View(ext.Start, n))
	return int(n), nil
}

// DataBytes returns the live byte slice of object id's payload: the
// object's full extent, aliasing backend memory. The slice is valid only
// until the next operation that can move objects or grow the backend.
// It is writable, so a file backend writes its pages back at the next
// Sync; read-only callers use ReadData. It returns false for unknown
// objects and spaces without a real backend.
func (s *Space) DataBytes(id ID) ([]byte, bool) {
	ext, ok := s.Extent(id)
	if !ok || !s.HasData() {
		return nil, false
	}
	return s.data.Bytes(ext.Start, ext.Size), true
}
