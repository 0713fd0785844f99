package exp

import (
	"fmt"

	"realloc/internal/arena"
	"realloc/internal/engine"
	"realloc/internal/stats"
	"realloc/internal/telemetry"
	"realloc/internal/trace"
	"realloc/internal/workload"
)

// E17 validates the cost model against real memmoves: every core replays
// identical uniform and zipf churn streams once on the metered backend
// (moved cells are counted, no bytes exist) and once on the heap arena
// (every relocation physically copies the object's extent). One cell is
// one byte, so three columns must agree exactly — the trace's moved
// volume, the metered counter, and the real backend's bytes actually
// copied — and the measured copy throughput (bytes/ns) prices what the
// abstract "moved volume" unit costs on this machine. The throughput is
// the flushes' moved volume over their FlushCopy time on a second,
// untraced replay; the substrate takes FlushCopy as one clock pair per
// move-session chunk (one per fcs rebuild), so numerator and denominator
// cover the same flush moves and no clock is read per copy.
func E17(cfg Config) (*Result, error) {
	res := &Result{ID: "E17", Title: "Metered cost model vs real memmove backends", Findings: map[string]float64{}}
	cores, err := cfg.cores()
	if err != nil {
		return nil, err
	}
	backends, err := cfg.backends()
	if err != nil {
		return nil, err
	}
	ops := cfg.ops(8000)
	workloads := []struct {
		name string
		mk   func() workload.Stream
	}{
		{"uniform", func() workload.Stream {
			return &workload.Churn{Seed: cfg.Seed + 18, Sizes: workload.Uniform{Min: 1, Max: 64}, TargetVolume: 1 << 14}
		}},
		{"zipf", func() workload.Stream {
			return &workload.ZipfChurn{Seed: cfg.Seed + 19, Sizes: workload.Pareto{Min: 1, Max: 512, Alpha: 1.2}, TargetVolume: 1 << 14, Homes: 8}
		}},
	}
	table := stats.NewTable("workload", "core", "backend", "trace moved", "backend bytes", "match", "copies", "flush moved", "flush copy ns", "bytes/ns")
	for _, wl := range workloads {
		seq := workload.Collect(wl.mk(), ops)
		if len(seq) == 0 {
			return nil, fmt.Errorf("E17: empty %s stream", wl.name)
		}
		for _, c := range cores {
			for _, bk := range backends {
				key := fmt.Sprintf("%s/%s/%s", wl.name, c, bk)
				m := trace.NewMetrics()
				cnt, err := e17Replay(c, bk, seq, m, nil)
				if err != nil {
					return nil, fmt.Errorf("E17 %s: %w", key, err)
				}
				match := cnt.BytesMoved == m.MovedVolume
				// Metered rows have no copy time to price, and a real row
				// whose run never flushed has no flush to price it by.
				var flushMoved, flushCopy, rate any = "—", "—", "—"
				if bk != arena.Metered {
					// The timing pass replays the stream untraced: the
					// trace recorder's per-move callback would otherwise
					// run inside the timed move loops.
					tel := &telemetry.Set{}
					if _, err := e17Replay(c, bk, seq, trace.Null{}, tel); err != nil {
						return nil, fmt.Errorf("E17 %s timing pass: %w", key, err)
					}
					var moved, copyNs telemetry.HistSnapshot
					tel.FlushMoved.AddTo(&moved)
					tel.FlushCopy.AddTo(&copyNs)
					flushMoved, flushCopy = moved.Sum, copyNs.Sum
					if copyNs.Sum > 0 {
						r := float64(moved.Sum) / float64(copyNs.Sum)
						rate = r
						res.Findings[key+"/bytesPerNs"] = r
					}
				}
				table.Row(wl.name, c.String(), bk.String(), m.MovedVolume, cnt.BytesMoved, match, cnt.Copies, flushMoved, flushCopy, rate)
				res.Findings[key+"/traceMoved"] = float64(m.MovedVolume)
				res.Findings[key+"/bytesMoved"] = float64(cnt.BytesMoved)
				if match {
					res.Findings[key+"/match"] = 1
				}
			}
		}
	}
	res.Text = table.String() +
		"\n\nShape check: on every row the backend's bytes-moved counter equals the\ntrace's moved volume exactly (one cell = one byte), whichever backend\nruns — the metered counters are the real cost, not an estimate. The\nbytes/ns column on real-backend rows converts the paper's moved-volume\nunit into wall-clock on this machine: flush moved volume over the time\nthe flushes spent in their move loops (FlushCopy, one clock pair per\nchunk) on an untraced replay, so it includes each move's bookkeeping,\nnot the memmove alone.\n"
	return res, nil
}

// e17Replay runs seq through a fresh core c over a new backend of kind
// bk, drains it, and returns the backend's counters.
func e17Replay(c engine.Core, bk arena.Kind, seq []workload.Op, rec trace.Recorder, tel *telemetry.Set) (arena.Counters, error) {
	data, err := arena.New(bk)
	if err != nil {
		return arena.Counters{}, err
	}
	defer data.Close()
	e, err := engine.New(engine.Config{Core: c, Epsilon: 0.25, Recorder: rec, Arena: data, Telemetry: tel})
	if err != nil {
		return arena.Counters{}, err
	}
	for i, op := range seq {
		if op.Insert {
			err = e.Insert(op.ID, op.Size)
		} else {
			err = e.Delete(op.ID)
		}
		if err != nil {
			return arena.Counters{}, fmt.Errorf("op %d: %w", i, err)
		}
	}
	if err := e.Drain(); err != nil {
		return arena.Counters{}, err
	}
	return data.Counters(), nil
}
