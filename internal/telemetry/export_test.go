package telemetry

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func populatedRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2; i++ {
		set := reg.Shard(i)
		for n := 0; n < 500; n++ {
			set.InsertLatency.Record(r.Int63n(1 << 20))
			set.DeleteLatency.Record(r.Int63n(1 << 18))
			set.FlushDuration.Record(r.Int63n(1 << 24))
			set.FlushMoved.Record(r.Int63n(4096))
			set.BatchSize.Record(1 + r.Int63n(512))
			set.WALFsync.Record(r.Int63n(1 << 21))
		}
		set.Recovery.Record(r.Int63n(1 << 26))
		set.Checkpoints.Add(int64(10 * (i + 1)))
	}
	return reg
}

// TestPrometheusHandler validates the /metrics output structurally:
// every histogram series has monotone cumulative buckets ending in a
// +Inf bucket that equals _count, and per-shard labels appear for each
// populated shard.
func TestPrometheusHandler(t *testing.T) {
	reg := populatedRegistry(t)
	rec := httptest.NewRecorder()
	Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	body := rec.Body.String()

	for _, want := range []string{
		`realloc_insert_latency_seconds_bucket{shard="0",`,
		`realloc_insert_latency_seconds_bucket{shard="1",`,
		`realloc_flush_duration_seconds_count{shard="0"}`,
		`realloc_checkpoints_total{shard="1"} 20`,
		`realloc_batch_size_ops_bucket{shard="0",`,
		`realloc_batch_size_ops_count{shard="1"}`,
		`realloc_wal_fsync_seconds_bucket{shard="0",`,
		`realloc_recovery_seconds_count{shard="1"}`,
		"# TYPE realloc_insert_latency_seconds histogram",
		"# TYPE realloc_wal_fsync_seconds histogram",
		"# TYPE realloc_recovery_seconds histogram",
		"# TYPE realloc_batch_size_ops histogram",
		"# TYPE realloc_checkpoints_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Parse every series: cumulative buckets must be monotone and the
	// +Inf bucket must equal the series' _count.
	cum := map[string]int64{} // series+labels -> last cumulative value
	inf := map[string]int64{} // series+labels -> +Inf bucket
	cnt := map[string]int64{} // series+labels -> _count
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		series, valStr := line[:sp], line[sp+1:]
		switch {
		case strings.Contains(series, "_bucket{"):
			v, err := strconv.ParseInt(valStr, 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", valStr, err)
			}
			key := series[:strings.Index(series, "le=")]
			if v < cum[key] {
				t.Fatalf("cumulative bucket decreased on %s: %d -> %d", key, cum[key], v)
			}
			cum[key] = v
			if strings.Contains(series, `le="+Inf"`) {
				inf[key] = v
			}
		case strings.Contains(series, "_count{"):
			v, _ := strconv.ParseInt(valStr, 10, 64)
			key := strings.Replace(series, "_count{", "_bucket{", 1)
			key = key[:len(key)-1] + ","
			cnt[key] = v
		}
	}
	if len(inf) == 0 {
		t.Fatal("no +Inf buckets found")
	}
	for key, v := range inf {
		if c, ok := cnt[key]; !ok || c != v {
			t.Errorf("series %s: +Inf bucket %d != _count %d (ok=%v)", key, v, c, ok)
		}
	}

	// The aggregate count across shards must match what was recorded.
	var total int64
	for key, v := range inf {
		if strings.HasPrefix(key, "realloc_insert_latency_seconds_bucket") {
			total += v
		}
	}
	if total != 1000 {
		t.Fatalf("insert latency +Inf total = %d, want 1000", total)
	}
}

// TestExpvarVar checks the expvar string is valid JSON carrying the
// summaries.
func TestExpvarVar(t *testing.T) {
	reg := populatedRegistry(t)
	var got Summaries
	if err := json.Unmarshal([]byte(Var(reg).String()), &got); err != nil {
		t.Fatalf("expvar output not valid JSON: %v", err)
	}
	if got.Shards != 2 || got.InsertLatencyNs.Count != 1000 || got.Checkpoints != 30 {
		t.Fatalf("expvar summaries wrong: %+v", got)
	}
	if got.InsertLatencyNs.P50 > got.InsertLatencyNs.P99 ||
		got.InsertLatencyNs.P99 > got.InsertLatencyNs.Max {
		t.Fatalf("percentiles not ordered: %+v", got.InsertLatencyNs)
	}
}

// TestAppendFindings checks the findings flattening: populated metrics
// appear under the prefix, empty ones are skipped.
func TestAppendFindings(t *testing.T) {
	reg := NewRegistry()
	reg.Shard(0).InsertLatency.Record(100)
	reg.Shard(0).Checkpoints.Add(3)
	m := map[string]float64{}
	reg.Snapshot().AppendFindings(m, "telemetry/")
	if m["telemetry/insert_latency/count"] != 1 {
		t.Fatalf("missing insert latency count: %v", m)
	}
	if m["telemetry/checkpoints"] != 3 {
		t.Fatalf("missing checkpoints: %v", m)
	}
	for k := range m {
		if strings.Contains(k, "migrate_latency") {
			t.Fatalf("empty histogram emitted finding %q", k)
		}
	}
}

// TestServeMux checks the debug mux wires all three surfaces.
func TestServeMux(t *testing.T) {
	mux := NewServeMux(populatedRegistry(t))
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/pprof/"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
}
