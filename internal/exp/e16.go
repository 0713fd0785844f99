package exp

import (
	"fmt"

	"realloc/internal/engine"
	"realloc/internal/stats"
	"realloc/internal/workload"
)

// E16 sweeps cost against epsilon for both reallocation cores behind the
// engine boundary, the PODS'14 reference and the FCS successor, each
// replaying identical uniform, zipf, and adversarial request sequences.
// Both cores must keep the quiescent footprint within (1+eps)·V, while
// the cost column shows each core's own trade: the reference pays
// O((1/eps)log(1/eps)) per unit, the successor O(1/eps) per unit plus
// geometric slot slack.
func E16(cfg Config) (*Result, error) {
	res := &Result{ID: "E16", Title: "Cost vs epsilon across reallocation cores", Findings: map[string]float64{}}
	cores, err := cfg.cores()
	if err != nil {
		return nil, err
	}
	ops := cfg.ops(8000)
	workloads := []struct {
		name string
		mk   func() workload.Stream
		n    int
	}{
		{"uniform", func() workload.Stream {
			return &workload.Churn{Seed: cfg.Seed + 16, Sizes: workload.Uniform{Min: 1, Max: 64}, TargetVolume: 1 << 14}
		}, ops},
		{"zipf", func() workload.Stream {
			return &workload.ZipfChurn{Seed: cfg.Seed + 17, Sizes: workload.Pareto{Min: 1, Max: 512, Alpha: 1.2}, TargetVolume: 1 << 14, Homes: 8}
		}, ops},
		{"adversarial", func() workload.Stream {
			return &workload.CompactionAdversary{Delta: 128, Bigs: 8}
		}, 0},
	}
	table := stats.NewTable("workload", "core", "eps", "bound 1+eps", "max footprint/V", "moved/requested", "moves/op", "flushes")
	for _, wl := range workloads {
		seq := workload.Collect(wl.mk(), wl.n)
		if len(seq) == 0 {
			return nil, fmt.Errorf("E16: empty %s stream", wl.name)
		}
		// Request volume prices the workload itself: the denominator of
		// the per-core cost column.
		var reqVol int64
		live := map[engine.ID]int64{}
		for _, op := range seq {
			if op.Insert {
				reqVol += op.Size
				live[op.ID] = op.Size
			} else {
				reqVol += live[op.ID]
				delete(live, op.ID)
			}
		}
		for _, c := range cores {
			for _, eps := range []float64{0.5, 0.25, 0.1} {
				e, m, err := newEngine(c, eps)
				if err != nil {
					return nil, fmt.Errorf("E16 %s/%s: %w", wl.name, c, err)
				}
				for i, op := range seq {
					if op.Insert {
						err = e.Insert(op.ID, op.Size)
					} else {
						err = e.Delete(op.ID)
					}
					if err != nil {
						return nil, fmt.Errorf("E16 %s/%s op %d: %w", wl.name, c, i, err)
					}
				}
				if err := e.Drain(); err != nil {
					return nil, err
				}
				costRatio := float64(m.MovedVolume) / float64(reqVol)
				movesPerOp := float64(m.MovesTotal) / float64(len(seq))
				table.Row(wl.name, c.String(), eps, 1+eps, m.MaxRatioQuiescent, costRatio, movesPerOp, e.Flushes())
				key := fmt.Sprintf("%s/%s/%g", wl.name, c, eps)
				res.Findings[key+"/quiescentRatio"] = m.MaxRatioQuiescent
				res.Findings[key+"/costRatio"] = costRatio
			}
		}
	}
	res.Text = table.String() +
		"\n\nShape check: every core's max footprint/V column stays below its 1+eps\nbound on every workload; the fcs rows' moved/requested stays within\nO(1/eps).\n"
	return res, nil
}
