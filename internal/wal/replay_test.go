package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math/rand/v2"
	"reflect"
	"testing"
)

// naiveReplay is the reference replay Open must agree with: apply every
// record to one table and copy the whole table at each checkpoint
// marker (O(checkpoints × live)). It reads an in-memory image and
// reports what Open reports, without touching a file.
func naiveReplay(data []byte) Replay {
	var rep Replay
	cur := map[uint64]Block{}
	size := int64(len(data))
	var off int64
scan:
	for off < size {
		rest := data[off:]
		if len(rest) < headerSize {
			break
		}
		plen := int64(binary.LittleEndian.Uint32(rest))
		if plen == 0 || plen+headerSize > maxFrame || plen+headerSize > int64(len(rest)) {
			break
		}
		payload := rest[headerSize : headerSize+plen]
		if crc64.Checksum(payload, crcTable) != binary.LittleEndian.Uint64(rest[4:]) {
			break
		}
		r, err := DecodeRecord(payload)
		if err != nil {
			break
		}
		switch r.Kind {
		case KInsert:
			cur[r.ID] = Block{Name: r.Name, Start: r.Start, Size: r.Size, Sum: r.Sum, HasSum: r.HasSum}
		case KDelete:
			if _, ok := cur[r.ID]; !ok {
				break scan
			}
			delete(cur, r.ID)
		case KMove:
			b, ok := cur[r.ID]
			if !ok {
				break scan
			}
			b.Start = r.Start
			cur[r.ID] = b
		case KSum:
			b, ok := cur[r.ID]
			if !ok {
				break scan
			}
			b.Sum, b.HasSum = r.Sum, true
			cur[r.ID] = b
		case KCheckpoint:
			snap := make(map[uint64]Block, len(cur))
			for id, b := range cur {
				snap[id] = b
			}
			rep.Blocks = snap
			rep.Seq = r.Seq
			rep.CkptID = r.ID
			rep.CkptEnd = off + headerSize + plen
			rep.Checkpoints++
			rep.Tail = -1
		}
		rep.Frames++
		rep.Tail++
		off += headerSize + plen
	}
	rep.CleanLen = off
	rep.Truncated = size - off
	return rep
}

// randomLog writes a log of n records over a small id space — inserts
// (re-inserts of live ids included), moves, sums, deletes and frequent
// checkpoints — and, when semantic is set, occasionally a record naming
// an id that is not live. It returns the synced image.
func randomLog(t *testing.T, rng *rand.Rand, n int, semantic bool) []byte {
	t.Helper()
	_, f := logFile(t, nil)
	w := NewWriter(f, 0)
	live := map[uint64]bool{}
	var seq uint64
	for i := 0; i < n; i++ {
		id := 1 + rng.Uint64N(24)
		var rec Record
		switch k := rng.IntN(20); {
		case k < 3:
			seq++
			rec = Record{Kind: KCheckpoint, Seq: seq, ID: rng.Uint64N(4)}
		case semantic && k == 3 && rng.IntN(8) == 0:
			rec = Record{Kind: KMove, ID: 1000 + id, Start: 1}
		case !live[id] || k < 7:
			rec = Record{Kind: KInsert, ID: id, Start: rng.Int64N(1 << 20), Size: 1 + rng.Int64N(4096),
				Sum: rng.Uint64(), HasSum: rng.IntN(2) == 0, Name: fmt.Sprintf("b%d", rng.IntN(40))}
			live[id] = true
		case k < 12:
			rec = Record{Kind: KMove, ID: id, Start: rng.Int64N(1 << 20)}
		case k < 15:
			rec = Record{Kind: KSum, ID: id, Sum: rng.Uint64()}
		default:
			rec = Record{Kind: KDelete, ID: id}
			delete(live, id)
		}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	sz, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	image := make([]byte, sz)
	if _, err := f.ReadAt(image, 0); err != nil {
		t.Fatal(err)
	}
	return image
}

// TestReplayMatchesNaive checks Open against the naive replay on
// randomized logs with many checkpoints, torn tails, flipped bits and
// semantic corruption: every field of the result must agree.
func TestReplayMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 0x7e1a))
	for trial := 0; trial < 300; trial++ {
		image := randomLog(t, rng, 1+rng.IntN(400), trial%3 == 0)
		switch trial % 4 {
		case 1: // torn tail: a crash kept only a prefix
			image = image[:rng.IntN(len(image)+1)]
		case 2: // one flipped bit somewhere in the log
			image[rng.IntN(len(image))] ^= 1 << rng.IntN(8)
		}
		want := naiveReplay(image)
		_, f := logFile(t, nil)
		if _, err := f.WriteAt(image, 0); err != nil {
			t.Fatal(err)
		}
		got, err := Open(f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("trial %d (%d bytes): Open %+v, naive replay %+v", trial, len(image), *got, want)
		}
		if sz, _ := f.Size(); sz != want.CleanLen {
			t.Fatalf("trial %d: file left at %d bytes, want %d", trial, sz, want.CleanLen)
		}
	}
}
