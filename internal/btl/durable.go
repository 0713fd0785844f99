// Durable mode: the block store over real media. Two files live in the
// store's directory (or faultfs.FS):
//
//   - wal.log — the write-ahead log, a framed mirror of the substrate's
//     event stream (insert/move/delete), payload checksums, and
//     checkpoint markers (see internal/wal);
//   - arena.<gen>.img — the payload arena, held in memory and synced
//     to media at every checkpoint by writing back the pages written
//     since the previous one (internal/arena). The generation counter
//     exists so recovery never writes an image a checkpoint record in
//     the log still names: each recovery rebuilds into a generation one
//     past the log's last record, and only after the new image and the
//     WAL checkpoint record naming it are both durable is the old
//     generation removed. A crash at ANY point of recovery therefore
//     replays the old WAL against the old, untouched image.
//
// Both files are made durable in the directory (FS.SyncDir) as soon as
// they are created, before any checkpoint record can name them: after a
// power loss a new file's entry can otherwise vanish while the WAL that
// names it survives.
//
// Checkpoint protocol (snapshot in btl.go): append the checkpoint
// record, then run the WAL group-fsync and the arena sync in parallel
// (faultfs.FS.Both) and wait for both. A crash can therefore leave the
// record durable without all of the arena pages; recovery then finds
// the last checkpoint's blocks failing their checksums and falls back
// to the checkpoint before it, which the checkpoint rule kept intact
// (recoverFromMedia). Replay order is event order because the WAL hook
// logs the trace events themselves.
package btl

import (
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"sort"
	"time"

	"realloc/internal/addrspace"
	"realloc/internal/arena"
	"realloc/internal/wal"
)

// Media file names. The arena name carries the generation.
const walFileName = "wal.log"

func arenaFileName(gen uint64) string { return fmt.Sprintf("arena.%d.img", gen) }

// Open recovers a durable store from the media in cfg.Dir (or cfg.FS):
// the WAL is replayed to the last durable checkpoint, every surviving
// block's bytes are verified against the arena image, and the blocks
// are reloaded into a fresh reallocator. Opening a directory that never
// held a store yields an empty store.
func Open(cfg Config) (*Store, RecoveryReport, error) {
	if cfg.Dir == "" && cfg.FS == nil {
		return nil, RecoveryReport{}, errors.New("btl: Open needs Dir or FS")
	}
	s, err := newShell(cfg)
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	s.crashed = true // recoverFromMedia is the shared recovery path
	rep, err := s.recoverFromMedia()
	if err != nil {
		return nil, rep, err
	}
	return s, rep, nil
}

// newArenaBackend creates an empty payload arena file for the current
// generation, then syncs the directory so that the file's entry (and
// that of a WAL created just before it) survives a power loss before
// any checkpoint record can name the generation.
func (s *Store) newArenaBackend() (arena.Backend, error) {
	f, err := s.fs.OpenFile(arenaFileName(s.gen))
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, err
	}
	if err := s.fs.SyncDir(); err != nil {
		f.Close()
		return nil, fmt.Errorf("btl: sync store directory: %w", err)
	}
	data, err := arena.FromFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return data, nil
}

// freshMedia truncates any existing store state and opens generation-1
// media: an empty WAL and an empty arena.
func (s *Store) freshMedia() (arena.Backend, error) {
	walF, err := s.fs.OpenFile(walFileName)
	if err != nil {
		return nil, err
	}
	if err := walF.Truncate(0); err != nil {
		walF.Close()
		return nil, err
	}
	s.gen = 1
	data, err := s.newArenaBackend()
	if err != nil {
		walF.Close()
		return nil, err
	}
	s.walF = walF
	s.w = s.newWriter(0)
	return data, nil
}

// newWriter builds the WAL writer with the telemetry hook attached.
func (s *Store) newWriter(off int64) *wal.Writer {
	w := wal.NewWriter(s.walF, off)
	if tel := s.tel; tel != nil {
		w.OnFsync = func(nanos int64) { tel.WALFsync.Record(nanos) }
	}
	return w
}

// recoverFromMedia is the durable recovery path, crash-safe at every
// step:
//
//  1. Replay the WAL (truncating any torn/corrupt tail): the block
//     tables at the last two durable checkpoints, with their sequence
//     numbers and the arena generations their extents refer to.
//  2. Verify the last checkpoint: every block with a checksum must hash
//     to it at its extent of that arena image. A checkpoint's WAL and
//     arena legs run in parallel, so its marker can be durable while
//     its arena pages are not; its moved extents then fail. In that
//     case fall back to the checkpoint before it, and verify that one
//     the same way. The checkpoint rule keeps it intact in the newer
//     image (see snapshot). Never go further back: a mismatch there
//     aborts recovery, and while the rule holds there is none.
//  3. Cut the WAL back to the chosen checkpoint's marker (the records
//     after it describe work the re-log below must not collide with).
//  4. Rebuild into a generation no marker in the log names: fresh
//     core, blocks re-inserted in id order, payloads rewritten, every
//     placement re-logged through the normal WAL hook.
//  5. Checkpoint: a record naming the new generation is appended, then
//     the WAL and the new arena image are synced. Only once both legs
//     return does the durable state reference the new image alone.
//  6. Old arena generations are removed.
//
// A crash before 5 completes leaves the chosen checkpoint's WAL prefix
// and arena image intact: if 5's marker survived without its arena
// pages, the next recovery falls back to that same checkpoint.
func (s *Store) recoverFromMedia() (RecoveryReport, error) {
	t0 := time.Now()
	var rep RecoveryReport

	// Any handles from before the crash are stale; drop them.
	if s.data != nil {
		_ = s.data.Close()
		s.data = nil
	}
	if s.walF != nil {
		_ = s.walF.Close()
		s.walF = nil
		s.w = nil
	}

	walF, err := s.fs.OpenFile(walFileName)
	if err != nil {
		return rep, fmt.Errorf("btl: open wal: %w", err)
	}
	rp, err := wal.Open(walF)
	if err != nil {
		walF.Close()
		return rep, fmt.Errorf("btl: replay wal: %w", err)
	}
	rep.WALTail = rp.Tail
	ck := rp.Checkpoint
	survivors, corrupt, err := s.verify(ck)
	if err == nil && len(corrupt) > 0 {
		// The last checkpoint's arena leg never completed: fall back
		// to the one before it, and no further.
		ck = rp.Prev
		rep.FellBack = true
		survivors, corrupt, err = s.verify(ck)
	}
	rep.Seq = ck.Seq
	if err == nil && len(corrupt) > 0 {
		rep.Corrupt = corrupt
		err = fmt.Errorf("btl: %d blocks corrupted after crash", len(corrupt))
	}
	if err != nil {
		walF.Close()
		return rep, err
	}

	// Cut the WAL back to the chosen checkpoint and resume appending
	// there. (Still crash-safe: the records being discarded are the
	// ones replay ignores, plus, after a fallback, a last marker whose
	// image fails verification whether or not the cut survives.)
	if err := walF.Truncate(ck.CkptEnd); err != nil {
		walF.Close()
		return rep, fmt.Errorf("btl: truncate wal tail: %w", err)
	}
	s.walF = walF
	s.w = s.newWriter(ck.CkptEnd)
	s.seq = ck.Seq
	// Generations only grow along the log, so the last marker names the
	// newest; a fallback must not rebuild over the image it abandoned
	// while that marker may still be durable.
	s.gen = rp.CkptID + 1
	s.ioErr = nil

	// Rebuild into the new generation; the chosen checkpoint's image
	// stays untouched until the checkpoint below makes the new one
	// authoritative.
	data, err := s.newArenaBackend()
	if err != nil {
		return rep, fmt.Errorf("btl: create arena generation %d: %w", s.gen, err)
	}
	if err := s.attachCore(data); err != nil {
		return rep, err
	}
	s.byName = make(map[string]addrspace.ID, len(survivors))
	s.names = make(map[addrspace.ID]string, len(survivors))
	s.sums = make(map[addrspace.ID]uint64, len(survivors))
	s.nextID = 1
	s.crashed = false

	// Re-insert with the durable checkpoint protocol suppressed: forced
	// core checkpoints during the rebuild must not log a checkpoint
	// record, because it would stamp the new generation while survivors
	// not yet re-inserted still replay to old-generation extents. The
	// old image and WAL prefix stay authoritative until the single
	// recovery checkpoint below.
	s.rebuilding = true
	defer func() { s.rebuilding = false }()
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].id < survivors[j].id })

	// A checkpoint forced mid-update snapshots both copies of a block —
	// the old id (delete not yet logged) and the new one. The newest id
	// per name wins; stale duplicates are re-logged as deletes, because
	// the WAL prefix still maps them to old-generation extents and a
	// silently skipped id would replay with a stale placement.
	winner := make(map[string]uint64, len(survivors))
	for _, sv := range survivors {
		if sv.id > winner[sv.b.Name] {
			winner[sv.b.Name] = sv.id
		}
	}
	for _, sv := range survivors {
		if winner[sv.b.Name] != sv.id {
			s.logWAL(wal.Record{Kind: wal.KDelete, ID: sv.id})
			continue
		}
		id := addrspace.ID(sv.id)
		s.pendingName = sv.b.Name
		err := s.realloc.Insert(id, sv.b.Size)
		s.pendingName = ""
		if err != nil {
			return rep, fmt.Errorf("btl: reinsert %q: %w", sv.b.Name, err)
		}
		if sv.b.HasSum {
			if err := s.realloc.Write(id, sv.data); err != nil {
				return rep, fmt.Errorf("btl: rewrite %q: %w", sv.b.Name, err)
			}
			s.sums[id] = sv.b.Sum
			s.logWAL(wal.Record{Kind: wal.KSum, ID: sv.id, Sum: sv.b.Sum})
		}
		s.byName[sv.b.Name] = id
		s.names[id] = sv.b.Name
		if id >= s.nextID {
			s.nextID = id + 1
		}
		rep.Recovered++
	}

	// The recovery checkpoint: makes the new generation authoritative.
	s.rebuilding = false
	s.Checkpoint()
	if s.ioErr != nil {
		return rep, fmt.Errorf("btl: recovery checkpoint: %w", s.ioErr)
	}

	// Both legs of the recovery checkpoint returned, so its marker
	// verifies and any later fallback lands on it or after it: no
	// recovery can name an older generation any more. Reap the
	// predecessors (a bounded sweep — crash-interrupted recoveries can
	// leave more than one behind).
	for g := s.gen; g > 0 && g+8 >= s.gen; g-- {
		if g != s.gen {
			_ = s.fs.Remove(arenaFileName(g))
		}
	}

	s.recoveries++
	if s.tel != nil {
		s.tel.Recovery.Record(time.Since(t0).Nanoseconds())
	}
	return rep, nil
}

// survivor is one verified block of the checkpoint recovery rebuilds.
type survivor struct {
	id   uint64
	b    wal.Block
	data []byte
}

// verify loads checkpoint ck's blocks from the arena image its marker
// names and checks each checksummed payload. It returns the blocks
// that verify and the names of those that do not, sorted; the error is
// for media that cannot be read at all.
func (s *Store) verify(ck wal.Checkpoint) ([]survivor, []string, error) {
	if len(ck.Blocks) == 0 {
		return nil, nil, nil
	}
	arF, err := s.fs.OpenFile(arenaFileName(ck.CkptID))
	if err != nil {
		return nil, nil, fmt.Errorf("btl: open arena image: %w", err)
	}
	defer arF.Close()
	asz, err := arF.Size()
	if err != nil {
		return nil, nil, fmt.Errorf("btl: arena image size: %w", err)
	}
	survivors := make([]survivor, 0, len(ck.Blocks))
	var corrupt []string
	for id, b := range ck.Blocks {
		if b.Start < 0 || b.Size < 0 || b.Start+b.Size > asz {
			corrupt = append(corrupt, b.Name)
			continue
		}
		buf := make([]byte, b.Size)
		if b.Size > 0 {
			if n, err := arF.ReadAt(buf, b.Start); err != nil && !(errors.Is(err, io.EOF) && int64(n) == b.Size) {
				corrupt = append(corrupt, b.Name)
				continue
			}
		}
		if b.HasSum && crc64.Checksum(buf, crcTable) != b.Sum {
			corrupt = append(corrupt, b.Name)
			continue
		}
		survivors = append(survivors, survivor{id: id, b: b, data: buf})
	}
	sort.Strings(corrupt)
	return survivors, corrupt, nil
}
