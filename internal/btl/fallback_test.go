package btl

import (
	"bytes"
	"fmt"
	"hash/crc64"
	"testing"

	"realloc/internal/faultfs"
)

// stagedPayload is block name's payload: the name repeated, so every
// block's bytes are distinct and can be found in an arena image.
func stagedPayload(name string, size int) []byte {
	return bytes.Repeat([]byte(name+"|"), size)[:size]
}

// runStages puts one large base block, then four small blocks per stage
// ("a", "b", "c"), and ends each stage with an explicit checkpoint. The
// base block keeps the small puts inside the core's buffer, so only the
// explicit checkpoints are taken after it: checkpoint base+k holds
// stages 1..k. It returns the model, the base checkpoint's seq and the
// global write count just before the last checkpoint.
func runStages(t *testing.T, fs *faultfs.MemFS) (m *crashModel, base uint64, before int) {
	t.Helper()
	m = newCrashModel(nil)
	st, err := New(Config{FS: fs, Recorder: m})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m.st = st
	put := func(name string, data []byte) {
		if err := st.Put(name, data); err != nil {
			t.Fatal(err)
		}
		m.setSum(uint64(st.byName[name]), crc64.Checksum(data, crcTable), data)
	}
	checkpoint := func() {
		before = fs.Injector().Writes()
		st.Checkpoint()
		for m.seq < st.seq {
			m.seq++
			m.snaps[m.seq] = m.project()
		}
	}
	put("base", stagedPayload("base", 1<<16))
	checkpoint()
	base = st.seq
	for k, stage := range []string{"a", "b", "c"} {
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("%s%d", stage, i)
			put(name, stagedPayload(name, 20+9*i))
		}
		checkpoint()
		if want := base + uint64(k+1); st.seq != want {
			t.Fatalf("stage %s ended at checkpoint %d, want %d: the workload forced a checkpoint", stage, st.seq, want)
		}
	}
	return m, base, before
}

// TestFallbackAtMostOneCheckpoint pins recovery's fallback. Stage c's
// checkpoint N runs its WAL leg first (MemFS's order), and the crash
// hits the first write of its arena leg: the marker is durable, but
// stage c's bytes never reach the image. Open must report the fallback
// and recover exactly the model's state at N-1. With N-1's image
// damaged too (stage b's bytes), Open must fail rather than fall back
// again to N-2, which that damage does not touch.
func TestFallbackAtMostOneCheckpoint(t *testing.T) {
	_, base, before := runStages(t, faultfs.NewMemFS(nil))
	crashArenaLeg := func() (*faultfs.MemFS, *crashModel) {
		// The WAL leg is one write and one sync; the arena leg's
		// first write comes next.
		fs := faultfs.NewMemFS(faultfs.NewInjector(faultfs.Fault{Kind: faultfs.CrashAtWrite, N: before + 2}))
		m, _, _ := runStages(t, fs)
		if !fs.Injector().Wedged() {
			t.Fatal("the fault did not fire")
		}
		fs.Crash()
		return fs, m
	}

	t.Run("arenaLegLost", func(t *testing.T) {
		fs, m := crashArenaLeg()
		st, rep, err := Open(Config{FS: fs})
		if err != nil {
			t.Fatalf("open: %v (report %+v)", err, rep)
		}
		defer st.Close()
		if !rep.FellBack || rep.Seq != base+2 || len(rep.Corrupt) != 0 {
			t.Fatalf("report %+v, want a fallback to checkpoint %d", rep, base+2)
		}
		want := m.snaps[base+2]
		if st.Len() != len(want) {
			t.Fatalf("recovered %d blocks, the model holds %d at checkpoint %d", st.Len(), len(want), base+2)
		}
		for name, b := range want {
			got, err := st.Get(name)
			if err != nil || !bytes.Equal(got, b.data) {
				t.Fatalf("block %q after the fallback: %q, %v", name, got, err)
			}
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("previousDamagedToo", func(t *testing.T) {
		fs, _ := crashArenaLeg()
		img, err := fs.OpenFile(arenaFileName(1))
		if err != nil {
			t.Fatal(err)
		}
		sz, _ := img.Size()
		buf := make([]byte, sz)
		if _, err := img.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("b%d", i)
			at := bytes.Index(buf, stagedPayload(name, 20+9*i))
			if at < 0 {
				t.Fatalf("block %q is not in the durable image", name)
			}
			if _, err := img.WriteAt([]byte{buf[at] ^ 0xff}, int64(at)); err != nil {
				t.Fatal(err)
			}
		}
		if err := img.Sync(); err != nil {
			t.Fatal(err)
		}
		st, rep, err := Open(Config{FS: fs})
		if err == nil {
			st.Close()
			t.Fatalf("recovery succeeded with checkpoint %d damaged: report %+v", base+2, rep)
		}
		if !rep.FellBack || rep.Seq != base+2 || len(rep.Corrupt) != 4 {
			t.Fatalf("report %+v, want checkpoint %d tried and its four b blocks corrupt", rep, base+2)
		}
	})
}
