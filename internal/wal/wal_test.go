package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"syscall"
	"testing"

	"realloc/internal/faultfs"
)

// logFile builds a MemFS-backed log file for tests.
func logFile(t *testing.T, inj *faultfs.Injector) (*faultfs.MemFS, faultfs.File) {
	t.Helper()
	fs := faultfs.NewMemFS(inj)
	f, err := fs.OpenFile("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	return fs, f
}

func TestRoundTripReplay(t *testing.T) {
	_, f := logFile(t, nil)
	w := NewWriter(f, 0)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.Append(Record{Kind: KInsert, ID: 1, Start: 0, Size: 10, Name: "a"}))
	must(w.Append(Record{Kind: KSum, ID: 1, Sum: 42}))
	must(w.Append(Record{Kind: KInsert, ID: 2, Start: 10, Size: 5, Name: "b"}))
	must(w.Append(Record{Kind: KMove, ID: 1, Start: 20}))
	must(w.Append(Record{Kind: KCheckpoint, Seq: 1, ID: 7}))
	ckptEnd := w.Offset()
	must(w.Sync())
	must(w.Append(Record{Kind: KDelete, ID: 2}))
	must(w.Append(Record{Kind: KInsert, ID: 3, Start: 10, Size: 7, Name: "c"}))
	must(w.Sync())

	rep, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checkpoints != 1 || rep.Seq != 1 || rep.CkptID != 7 {
		t.Fatalf("checkpoints=%d seq=%d ckptID=%d", rep.Checkpoints, rep.Seq, rep.CkptID)
	}
	if rep.CkptEnd != ckptEnd {
		t.Fatalf("CkptEnd = %d, want %d", rep.CkptEnd, ckptEnd)
	}
	if rep.Frames != 7 || rep.Tail != 2 || rep.Truncated != 0 {
		t.Fatalf("frames=%d tail=%d truncated=%d", rep.Frames, rep.Tail, rep.Truncated)
	}
	if len(rep.Blocks) != 2 {
		t.Fatalf("blocks: %v", rep.Blocks)
	}
	a := rep.Blocks[1]
	if a.Name != "a" || a.Start != 20 || a.Size != 10 || !a.HasSum || a.Sum != 42 {
		t.Fatalf("block 1: %+v", a)
	}
	if b := rep.Blocks[2]; b.Name != "b" || b.Start != 10 || b.HasSum {
		t.Fatalf("block 2: %+v", b)
	}
}

func TestReplayStopsAtTornFrame(t *testing.T) {
	fs, f := logFile(t, nil)
	w := NewWriter(f, 0)
	_ = w.Append(Record{Kind: KInsert, ID: 1, Start: 0, Size: 4, Name: "keep"})
	_ = w.Append(Record{Kind: KCheckpoint, Seq: 1})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	clean := w.Offset()
	// A frame whose write tears mid-payload: synced header+prefix, then
	// crash. Model it by appending and syncing, then truncating the
	// volatile image is not possible through the Writer — write the torn
	// bytes directly.
	_ = w.Append(Record{Kind: KInsert, ID: 2, Start: 4, Size: 4, Name: "torn-away"})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	full, _ := f.Size()
	if err := f.Truncate(clean + (full-clean)/2); err != nil {
		t.Fatal(err)
	}
	rep, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated == 0 {
		t.Fatal("torn frame not truncated")
	}
	if rep.CleanLen != clean {
		t.Fatalf("clean length %d, want %d", rep.CleanLen, clean)
	}
	if len(rep.Blocks) != 1 || rep.Blocks[1].Name != "keep" {
		t.Fatalf("blocks: %v", rep.Blocks)
	}
	// The file itself was cut back to the clean prefix.
	if sz, _ := f.Size(); sz != clean {
		t.Fatalf("file size %d after truncation, want %d", sz, clean)
	}
	_ = fs
}

func TestReplayStopsAtBitFlip(t *testing.T) {
	_, f := logFile(t, nil)
	w := NewWriter(f, 0)
	_ = w.Append(Record{Kind: KInsert, ID: 1, Start: 0, Size: 4, Name: "good"})
	_ = w.Append(Record{Kind: KCheckpoint, Seq: 1})
	firstCkptEnd := w.Offset()
	_ = w.Append(Record{Kind: KInsert, ID: 2, Start: 4, Size: 4, Name: "flipped"})
	_ = w.Append(Record{Kind: KCheckpoint, Seq: 2})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit of the third frame.
	var b [1]byte
	if _, err := f.ReadAt(b[:], firstCkptEnd+headerSize); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], firstCkptEnd+headerSize); err != nil {
		t.Fatal(err)
	}
	rep, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	// Replay lands on checkpoint 1: the flip invalidated everything after.
	if rep.Seq != 1 || len(rep.Blocks) != 1 {
		t.Fatalf("seq=%d blocks=%v", rep.Seq, rep.Blocks)
	}
	if rep.Truncated == 0 {
		t.Fatal("corrupt tail not truncated")
	}
}

func TestReplayEmptyAndNoCheckpoint(t *testing.T) {
	_, f := logFile(t, nil)
	rep, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blocks != nil || rep.Frames != 0 || rep.Checkpoints != 0 {
		t.Fatalf("empty log: %+v", rep)
	}
	w := NewWriter(f, rep.CleanLen)
	_ = w.Append(Record{Kind: KInsert, ID: 1, Start: 0, Size: 1, Name: "x"})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err = Open(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blocks != nil || rep.Tail != 1 {
		t.Fatalf("no-checkpoint log: %+v", rep)
	}
}

func TestReplayStopsAtSemanticCorruption(t *testing.T) {
	_, f := logFile(t, nil)
	w := NewWriter(f, 0)
	_ = w.Append(Record{Kind: KCheckpoint, Seq: 1})
	_ = w.Append(Record{Kind: KSum, ID: 42, Sum: 1}) // unknown id
	_ = w.Append(Record{Kind: KMove, ID: 99, Start: 8})
	_ = w.Append(Record{Kind: KCheckpoint, Seq: 2})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seq != 1 || rep.Truncated == 0 {
		t.Fatalf("seq=%d truncated=%d: semantic corruption must stop replay", rep.Seq, rep.Truncated)
	}
}

func TestWriterRetriesTransientEIO(t *testing.T) {
	_, f := logFile(t, faultfs.NewInjector(faultfs.Fault{Kind: faultfs.TransientEIO, N: 1}))
	w := NewWriter(f, 0)
	w.RetryDelay = 0
	_ = w.Append(Record{Kind: KInsert, ID: 1, Start: 0, Size: 1, Name: "x"})
	if err := w.Sync(); err != nil {
		t.Fatalf("transient EIO must be retried away: %v", err)
	}
	rep, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 1 {
		t.Fatalf("frames=%d", rep.Frames)
	}
}

func TestWriterDoesNotRetryInjectedCrash(t *testing.T) {
	_, f := logFile(t, faultfs.NewInjector(faultfs.Fault{Kind: faultfs.CrashAtWrite, N: 1}))
	w := NewWriter(f, 0)
	w.RetryDelay = 0
	_ = w.Append(Record{Kind: KInsert, ID: 1, Start: 0, Size: 1, Name: "x"})
	if err := w.Sync(); !errors.Is(err, faultfs.ErrInjectedCrash) {
		t.Fatalf("want injected crash, got %v", err)
	}
}

func TestGroupFsyncLatencyHook(t *testing.T) {
	_, f := logFile(t, nil)
	w := NewWriter(f, 0)
	var calls int
	w.OnFsync = func(nanos int64) {
		calls++
		if nanos < 0 {
			t.Fatalf("negative fsync latency %d", nanos)
		}
	}
	_ = w.Append(Record{Kind: KCheckpoint, Seq: 1})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("OnFsync fired %d times", calls)
	}
}

func TestOversizeNameRejected(t *testing.T) {
	_, f := logFile(t, nil)
	w := NewWriter(f, 0)
	big := make([]byte, maxName+1)
	if err := w.Append(Record{Kind: KInsert, ID: 1, Name: string(big)}); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversize name: %v", err)
	}
}

func TestDecodeRejectsGarbageLengths(t *testing.T) {
	// A frame header claiming a giant payload must stop the scan, not
	// allocate or slice out of bounds.
	_, f := logFile(t, nil)
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<30)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		t.Fatal(err)
	}
	rep, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 0 || rep.Truncated != headerSize {
		t.Fatalf("garbage header: %+v", rep)
	}
}

func TestWriterDoesNotRetryNoSpace(t *testing.T) {
	fs, f := logFile(t, faultfs.NewInjector(faultfs.Fault{Kind: faultfs.NoSpace, N: 1}))
	w := NewWriter(f, 0)
	w.RetryDelay = 0
	_ = w.Append(Record{Kind: KInsert, ID: 1, Start: 0, Size: 1, Name: "x"})
	if err := w.Sync(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	if n := fs.Injector().Writes(); n != 1 {
		t.Fatalf("a full disk was written %d times, want 1 (no retry)", n)
	}
}

// appendRecords is a mix of every record kind, names included.
var appendRecords = []Record{
	{Kind: KInsert, ID: 7, Start: 4096, Size: 130, Name: "blk00000007"},
	{Kind: KInsert, ID: 8, Start: 1 << 40, Size: 1, Sum: 0xfeed, HasSum: true, Name: ""},
	{Kind: KMove, ID: 7, Start: 8192},
	{Kind: KSum, ID: 7, Sum: 0xdeadbeef},
	{Kind: KDelete, ID: 8},
	{Kind: KCheckpoint, Seq: 3, ID: 2},
}

// TestAppendFramesInPlace: frames encoded in place in the group buffer
// are byte-identical to a header followed by the separately encoded
// payload, and a record that cannot be framed leaves the buffer as it
// was.
func TestAppendFramesInPlace(t *testing.T) {
	_, f := logFile(t, nil)
	w := NewWriter(f, 0)
	var want []byte
	for i, r := range appendRecords {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		payload, err := appendRecord(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		var hdr [headerSize]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
		binary.LittleEndian.PutUint64(hdr[4:], crc64.Checksum(payload, crcTable))
		want = append(append(want, hdr[:]...), payload...)
		if !bytes.Equal(w.buf, want) {
			t.Fatalf("record %d (%v): frame bytes diverged", i, r.Kind)
		}
		bad := Record{Kind: KInsert, ID: 9, Name: string(make([]byte, maxName+1))}
		if i%2 == 1 {
			bad = Record{Kind: 99}
		}
		if err := w.Append(bad); err == nil {
			t.Fatalf("record %d: unframeable record accepted", i)
		}
		if !bytes.Equal(w.buf, want) {
			t.Fatalf("record %d: a rejected record changed the buffer", i)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := Open(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != len(appendRecords) || rep.Truncated != 0 {
		t.Fatalf("replay: %+v", rep)
	}
}

// TestAppendAllocationFree: once the group buffer has grown, Append
// allocates nothing.
func TestAppendAllocationFree(t *testing.T) {
	_, f := logFile(t, nil)
	w := NewWriter(f, 0)
	const runs = 100
	for i := 0; i < 2*runs; i++ {
		for _, r := range appendRecords {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		for _, r := range appendRecords {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %.1f times per %d records, want 0", allocs, len(appendRecords))
	}
}
