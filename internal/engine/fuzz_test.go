package engine

import (
	"testing"
)

// FuzzCrossCore drives byte-encoded request sequences through every core
// with paranoid invariant checking, cross-checking the externally
// observable state against a reference model after the run. The byte
// encoding and seed corpus are shared verbatim with the reference core's
// FuzzReallocator (internal/core), so corpus findings transfer between
// the two targets.
//
// Run continuously with: go test -fuzz FuzzCrossCore ./internal/engine
func FuzzCrossCore(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 0x42, 0x01, 0x80, 0x00})
	f.Add([]byte{0xff, 0xff, 0x00, 0x00, 0x10, 0x20, 0x30, 0x40})
	f.Add([]byte{0x07, 0x01, 0x07, 0x02, 0x87, 0x00, 0x87, 0x01})
	seed := make([]byte, 160)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		cfgs := []struct {
			name string
			cfg  Config
		}{
			{"pods14", Config{Core: PODS14, Epsilon: 0.3, Paranoid: true, TrackCells: true}},
			{"fcs", Config{Core: FCS, Epsilon: 0.3, Paranoid: true, TrackCells: true}},
		}
		engines := make([]Engine, len(cfgs))
		for i, c := range cfgs {
			e, err := New(c.cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			engines[i] = e
		}
		ref := map[ID]int64{}
		var ids []ID
		next := ID(1)
		for i := 0; i+1 < len(data); i += 2 {
			a, b := data[i], data[i+1]
			if a&0x80 == 0 || len(ids) == 0 {
				// Insert with a size derived from the low bits,
				// occasionally exploded to exercise new classes.
				size := int64(a&0x7f) + 1
				if b&0x0f == 0x0f {
					size *= 97
				}
				for j, e := range engines {
					if err := e.Insert(next, size); err != nil {
						t.Fatalf("%s: insert(%d,%d): %v", cfgs[j].name, next, size, err)
					}
				}
				ref[next] = size
				ids = append(ids, next)
				next++
			} else {
				idx := int(b) % len(ids)
				id := ids[idx]
				for j, e := range engines {
					if err := e.Delete(id); err != nil {
						t.Fatalf("%s: delete(%d): %v", cfgs[j].name, id, err)
					}
				}
				delete(ref, id)
				ids[idx] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
			}
		}
		var vol int64
		for _, size := range ref {
			vol += size
		}
		for j, e := range engines {
			name := cfgs[j].name
			if err := e.Drain(); err != nil {
				t.Fatalf("%s: drain: %v", name, err)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if e.Len() != len(ref) || e.Volume() != vol {
				t.Fatalf("%s: state drift: len %d/%d, vol %d/%d", name, e.Len(), len(ref), e.Volume(), vol)
			}
			for id, size := range ref {
				ext, ok := e.Extent(id)
				if !ok || ext.Size != size {
					t.Fatalf("%s: object %d lost or resized (%v, %v)", name, id, ext, ok)
				}
			}
		}
	})
}
