// Exporters: the same registry surfaces two ways, both stdlib-only —
// Prometheus text on /metrics (per-shard histograms, so a scrape sees
// skew between shards, not just the blended tail) and an expvar Var for
// /debug/vars. AppendFindings flattens a snapshot into the findings of
// a BENCH_*.json record.
package telemetry

import (
	"bufio"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// Summary is the percentile digest of one histogram, the shape
// embedded in BENCH_<id>.json findings and /debug/vars.
type Summary struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// Summary digests the snapshot into count/mean/p50/p95/p99/max.
func (s *HistSnapshot) Summary() Summary {
	return Summary{
		Count: s.Count,
		Sum:   s.Sum,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
		Max:   s.Max,
	}
}

// Summaries is the JSON shape of a whole Snapshot: one Summary per
// metric, nanosecond and cell units spelled out in the keys.
type Summaries struct {
	Shards           int     `json:"shards"`
	InsertLatencyNs  Summary `json:"insert_latency_ns"`
	DeleteLatencyNs  Summary `json:"delete_latency_ns"`
	FlushDurationNs  Summary `json:"flush_duration_ns"`
	FlushStallNs     Summary `json:"flush_stall_ns"`
	FlushMovedCells  Summary `json:"flush_moved_cells"`
	FlushChunkCells  Summary `json:"flush_chunk_cells"`
	FlushCopyNs      Summary `json:"flush_copy_ns"`
	MigrateLatencyNs Summary `json:"migrate_latency_ns"`
	BatchSizeOps     Summary `json:"batch_size_ops"`
	WALFsyncNs       Summary `json:"wal_fsync_ns"`
	RecoveryNs       Summary `json:"recovery_ns"`
	Checkpoints      int64   `json:"checkpoints"`
	BytesMoved       int64   `json:"bytes_moved"`
}

// Summaries digests every metric of the snapshot.
func (s *Snapshot) Summaries() Summaries {
	return Summaries{
		Shards:           s.Shards,
		InsertLatencyNs:  s.InsertLatency.Summary(),
		DeleteLatencyNs:  s.DeleteLatency.Summary(),
		FlushDurationNs:  s.FlushDuration.Summary(),
		FlushStallNs:     s.FlushStall.Summary(),
		FlushMovedCells:  s.FlushMoved.Summary(),
		FlushChunkCells:  s.FlushChunk.Summary(),
		FlushCopyNs:      s.FlushCopy.Summary(),
		MigrateLatencyNs: s.MigrateLatency.Summary(),
		BatchSizeOps:     s.BatchSize.Summary(),
		WALFsyncNs:       s.WALFsync.Summary(),
		RecoveryNs:       s.Recovery.Summary(),
		Checkpoints:      s.Checkpoints,
		BytesMoved:       s.BytesMoved,
	}
}

// AppendFindings merges the snapshot's non-empty metrics into a
// findings map (the benchfmt.Record schema) under prefix, e.g.
// "telemetry/insert_latency/p99_ns". Empty histograms are skipped so
// core-level experiment records don't carry dead zero rows.
func (s *Snapshot) AppendFindings(m map[string]float64, prefix string) {
	add := func(name, unit string, h *HistSnapshot) {
		if h.Count == 0 {
			return
		}
		m[prefix+name+"/count"] = float64(h.Count)
		m[prefix+name+"/mean_"+unit] = h.Mean()
		m[prefix+name+"/p50_"+unit] = float64(h.Quantile(0.50))
		m[prefix+name+"/p95_"+unit] = float64(h.Quantile(0.95))
		m[prefix+name+"/p99_"+unit] = float64(h.Quantile(0.99))
		m[prefix+name+"/max_"+unit] = float64(h.Max)
	}
	add("insert_latency", "ns", &s.InsertLatency)
	add("delete_latency", "ns", &s.DeleteLatency)
	add("flush_duration", "ns", &s.FlushDuration)
	add("flush_stall", "ns", &s.FlushStall)
	add("flush_moved", "cells", &s.FlushMoved)
	add("flush_chunk", "cells", &s.FlushChunk)
	add("flush_copy", "ns", &s.FlushCopy)
	add("migrate_latency", "ns", &s.MigrateLatency)
	add("batch_size", "ops", &s.BatchSize)
	add("wal_fsync", "ns", &s.WALFsync)
	add("recovery", "ns", &s.Recovery)
	if s.Checkpoints != 0 {
		m[prefix+"checkpoints"] = float64(s.Checkpoints)
	}
	if s.BytesMoved != 0 {
		m[prefix+"bytes_moved"] = float64(s.BytesMoved)
	}
}

// Var wraps the registry as an expvar.Var whose String() is the JSON
// Summaries of a fresh aggregate snapshot. Publish it under any name:
//
//	expvar.Publish("realloc", telemetry.Var(reg))
func Var(reg *Registry) expvar.Var { return exportVar{reg} }

type exportVar struct{ reg *Registry }

func (v exportVar) String() string {
	var snap Snapshot
	v.reg.ReadSnapshot(&snap)
	b, err := json.Marshal(snap.Summaries())
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Handler serves the registry in Prometheus text exposition format
// (version 0.0.4): per-shard op-latency, flush, and migration
// histograms with cumulative le buckets, duration metrics in seconds,
// volume metrics in cells. Stdlib only — no client library.
func Handler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		bw := bufio.NewWriter(w)
		writePrometheus(bw, reg)
		bw.Flush()
	})
}

// NewServeMux returns a mux with the full debug surface: /metrics
// (Prometheus text), /debug/vars (expvar), and /debug/pprof. The pprof
// routes are wired explicitly rather than via the package's init side
// effect on http.DefaultServeMux, so embedding this mux never leaks
// handlers onto a default mux the host process may expose elsewhere.
func NewServeMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(reg))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writePrometheus(w io.Writer, reg *Registry) {
	shards := reg.NumShards()
	var snap Snapshot
	type hist struct {
		name, help string
		scale      float64 // multiplier into the exported unit
		get        func(*Snapshot) *HistSnapshot
	}
	hists := []hist{
		{"realloc_insert_latency_seconds", "Wall-clock Insert latency.", 1e-9,
			func(s *Snapshot) *HistSnapshot { return &s.InsertLatency }},
		{"realloc_delete_latency_seconds", "Wall-clock Delete latency.", 1e-9,
			func(s *Snapshot) *HistSnapshot { return &s.DeleteLatency }},
		{"realloc_flush_duration_seconds", "Active execution time per flush.", 1e-9,
			func(s *Snapshot) *HistSnapshot { return &s.FlushDuration }},
		{"realloc_flush_stall_seconds", "Per-op time blocked behind another op's flush.", 1e-9,
			func(s *Snapshot) *HistSnapshot { return &s.FlushStall }},
		{"realloc_flush_moved_cells", "Cells moved per completed flush.", 1,
			func(s *Snapshot) *HistSnapshot { return &s.FlushMoved }},
		{"realloc_flush_chunk_cells", "Cells moved per deamortized session chunk.", 1,
			func(s *Snapshot) *HistSnapshot { return &s.FlushChunk }},
		{"realloc_flush_copy_seconds", "Time in move loops per completed flush (real backends only).", 1e-9,
			func(s *Snapshot) *HistSnapshot { return &s.FlushCopy }},
		{"realloc_migrate_latency_seconds", "Per-object rebalancer migration latency.", 1e-9,
			func(s *Snapshot) *HistSnapshot { return &s.MigrateLatency }},
		{"realloc_batch_size_ops", "Ops per executed batch group.", 1,
			func(s *Snapshot) *HistSnapshot { return &s.BatchSize }},
		{"realloc_wal_fsync_seconds", "WAL group-fsync latency.", 1e-9,
			func(s *Snapshot) *HistSnapshot { return &s.WALFsync }},
		{"realloc_recovery_seconds", "Crash-recovery duration per replay.", 1e-9,
			func(s *Snapshot) *HistSnapshot { return &s.Recovery }},
	}
	for _, h := range hists {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
		for i := 0; i < shards; i++ {
			reg.ReadShardSnapshot(i, &snap)
			writeHistogram(w, h.name, `shard="`+strconv.Itoa(i)+`"`, h.get(&snap), h.scale)
		}
	}
	fmt.Fprintf(w, "# HELP realloc_checkpoints_total Checkpointed placements.\n# TYPE realloc_checkpoints_total counter\n")
	for i := 0; i < shards; i++ {
		reg.ReadShardSnapshot(i, &snap)
		fmt.Fprintf(w, "realloc_checkpoints_total{shard=%q} %d\n", strconv.Itoa(i), snap.Checkpoints)
	}
	fmt.Fprintf(w, "# HELP realloc_bytes_moved_total Payload bytes moved by relocations.\n# TYPE realloc_bytes_moved_total counter\n")
	for i := 0; i < shards; i++ {
		reg.ReadShardSnapshot(i, &snap)
		fmt.Fprintf(w, "realloc_bytes_moved_total{shard=%q} %d\n", strconv.Itoa(i), snap.BytesMoved)
	}
}

// writeHistogram emits one labeled histogram series: cumulative
// buckets up to the last occupied one, then +Inf, _sum, _count. The le
// bound of bucket i is its highest contained raw value scaled into the
// exported unit (histogram buckets hold integers, so hi-1 is exact).
func writeHistogram(w io.Writer, name, labels string, s *HistSnapshot, scale float64) {
	var cum int64
	last := -1
	for i := range s.Buckets {
		if s.Buckets[i] != 0 {
			last = i
		}
	}
	for i := 0; i <= last; i++ {
		cum += s.Buckets[i]
		le := strconv.FormatFloat(float64(bucketHi(i)-1)*scale, 'g', -1, 64)
		fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, labels, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, s.Count)
	fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, strconv.FormatFloat(float64(s.Sum)*scale, 'g', -1, 64))
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, s.Count)
}
