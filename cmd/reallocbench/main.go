// Command reallocbench regenerates the experiment suite (README's
// "Experiment harness"; -list prints each experiment's claim): every
// table and figure validating the paper's claims.
//
// Usage:
//
//	reallocbench [-e E1|E2|...|E17|all] [-seed N] [-ops N] [-quick] [-list]
//	            [-core pods14|fcs] [-backend metered|heap|mmap]
//	            [-cpuprofile FILE] [-memprofile FILE]
//	            [-json] [-outdir DIR] [-telemetry] [-http ADDR]
//
// With -json, each experiment additionally writes a machine-readable
// BENCH_<id>.json (into -outdir, default ".") carrying its findings map,
// wall-clock duration, and run configuration, so successive runs
// accumulate a perf trajectory that tooling can diff.
//
// With -telemetry, the facade-level experiments (E13–E15) run with the
// runtime telemetry layer armed and embed its percentile summaries
// (telemetry/<metric>/{p50,p95,p99,max}_*) in their findings — and
// hence in BENCH_<id>.json under -json. With -http ADDR (which implies
// -telemetry), the currently running experiment's registry is also
// served live: Prometheus text on ADDR/metrics, expvar on
// /debug/vars, and the pprof surface on /debug/pprof — e.g.
//
//	reallocbench -e E14 -telemetry -http :6060
//
// With -durable, the experiment suite is skipped and a durability lane
// runs instead: a block-churn workload against a durable store (WAL +
// file-backed arena) in -wal DIR (a temp directory when empty), which
// is then closed and recovered, printing churn throughput, checkpoint
// counts, WAL fsync percentiles, and cold-start replay time:
//
//	reallocbench -durable [-wal DIR] [-ops 100000] [-seed 1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"realloc"
	"realloc/internal/benchfmt"
	"realloc/internal/exp"
	"realloc/internal/telemetry"
)

func main() {
	os.Exit(run())
}

// run owns the profiling lifecycle so every exit path flushes profiles:
// os.Exit in main would skip the deferred StopCPUProfile/heap write and
// corrupt the very artifacts a profiled run exists to produce.
func run() int {
	var (
		which      = flag.String("e", "all", "experiment to run (E1..E17 or 'all')")
		seed       = flag.Uint64("seed", 1, "workload seed")
		ops        = flag.Int("ops", 0, "request budget per run (0 = experiment default)")
		quick      = flag.Bool("quick", false, "reduced scale for a fast pass")
		coreName   = flag.String("core", "", "restrict cross-core experiments to one core (pods14, fcs; empty = both)")
		backend    = flag.String("backend", "", "restrict cross-backend experiments to one payload backend (metered, heap, mmap; empty = metered+heap)")
		list       = flag.Bool("list", false, "list experiments and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to `file`")
		memprofile = flag.String("memprofile", "", "write an allocation profile to `file`")
		jsonOut    = flag.Bool("json", false, "write a BENCH_<id>.json per experiment run")
		outdir     = flag.String("outdir", ".", "directory for -json output files")
		telem      = flag.Bool("telemetry", false, "arm the runtime telemetry layer on facade experiments and embed percentile summaries in findings")
		httpAddr   = flag.String("http", "", "serve live /metrics, /debug/vars and /debug/pprof on this `address` (implies -telemetry)")
		durable    = flag.Bool("durable", false, "run the durability lane (WAL + file-backed arena churn, then recovery) instead of the experiment suite")
		walDir     = flag.String("wal", "", "media `directory` for the -durable lane (empty: a fresh temp directory, removed afterwards)")
	)
	flag.Parse()
	if *httpAddr != "" {
		*telem = true
	}

	if *durable {
		return runDurableLane(*walDir, *seed, *ops)
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n     %s\n", e.ID, e.Title, e.Claim)
		}
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fail(err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
	}()

	cfg := exp.Config{Seed: *seed, Ops: *ops, Quick: *quick, Core: *coreName, Backend: *backend}
	// Each experiment records into a fresh registry so its findings (and
	// the live HTTP view) describe that run alone; liveReg is what the
	// debug server reads, swapped atomically as experiments advance.
	var liveReg atomic.Pointer[telemetry.Registry]
	if *telem {
		liveReg.Store(telemetry.NewRegistry())
	}
	if *httpAddr != "" {
		go func() {
			err := http.ListenAndServe(*httpAddr, http.HandlerFunc(
				func(w http.ResponseWriter, r *http.Request) {
					telemetry.NewServeMux(liveReg.Load()).ServeHTTP(w, r)
				}))
			fmt.Fprintln(os.Stderr, "reallocbench: http:", err)
		}()
		fmt.Fprintf(os.Stderr, "reallocbench: serving /metrics, /debug/vars, /debug/pprof on %s\n", *httpAddr)
	}
	var targets []exp.Experiment
	if strings.EqualFold(*which, "all") {
		targets = exp.All()
	} else {
		e, ok := exp.ByID(*which)
		if !ok {
			fmt.Fprintf(os.Stderr, "reallocbench: unknown experiment %q (try -list)\n", *which)
			return 2
		}
		targets = []exp.Experiment{e}
	}
	// One manifest per process: every BENCH_<id>.json of this run carries
	// the same git SHA, Go version, and GOMAXPROCS, so trajectory files
	// from different PRs are comparable (and same-run files group).
	manifest := benchfmt.CurrentManifest()
	for _, e := range targets {
		if *telem {
			reg := telemetry.NewRegistry()
			liveReg.Store(reg)
			cfg.Telemetry = reg
		}
		start := time.Now()
		res, err := e.Run(cfg)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", e.ID, err))
		}
		if cfg.Telemetry != nil && res.Findings != nil {
			cfg.Telemetry.Snapshot().AppendFindings(res.Findings, "telemetry/")
		}
		fmt.Printf("== %s: %s ==\nClaim: %s\n\n%s\n", e.ID, e.Title, e.Claim, res.Text)
		if !*jsonOut {
			continue
		}
		rec := benchfmt.Record{
			ID: e.ID, Title: e.Title, Claim: e.Claim,
			Seed: *seed, Ops: *ops, Core: *coreName, Backend: *backend, Quick: *quick,
			Timestamp: start.UTC(), GoVersion: manifest.GoVersion,
			Seconds:  time.Since(start).Seconds(),
			Findings: res.Findings,
			Manifest: manifest,
		}
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return fail(err)
		}
		path := filepath.Join(*outdir, "BENCH_"+e.ID+".json")
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "reallocbench: wrote %s\n", path)
	}
	return 0
}

// runDurableLane is the -durable mode: churn a durable block store in
// dir (put/update/drop with periodic checkpoints), close it, and time
// the cold-start recovery — the end-to-end cost a database pays for the
// checkpoint rule's durability contract.
func runDurableLane(dir string, seed uint64, ops int) int {
	if ops <= 0 {
		ops = 100_000
	}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "reallocbench-wal-*")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	reg := telemetry.NewRegistry()
	s, err := realloc.NewBlockStore(realloc.BlockStoreDir(dir), realloc.BlockStoreTelemetry(reg))
	if err != nil {
		return fail(err)
	}

	rng := rand.New(rand.NewPCG(seed, 0xd07ab))
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var names []string
	next := 0
	start := time.Now()
	for op := 0; op < ops; op++ {
		var err error
		switch k := rng.IntN(10); {
		case k < 5 || len(names) == 0:
			name := fmt.Sprintf("blk%08d", next)
			next++
			if err = s.Put(name, payload[:16+rng.IntN(240)]); err == nil {
				names = append(names, name)
			}
		case k < 7:
			err = s.Update(names[rng.IntN(len(names))], int64(16+rng.IntN(240)))
		case k < 8:
			j := rng.IntN(len(names))
			if err = s.Drop(names[j]); err == nil {
				names[j] = names[len(names)-1]
				names = names[:len(names)-1]
			}
		default:
			s.Checkpoint()
			err = s.Err()
		}
		if err != nil {
			return fail(fmt.Errorf("durable churn op %d: %w", op, err))
		}
	}
	s.Checkpoint()
	if err := s.Err(); err != nil {
		return fail(err)
	}
	churn := time.Since(start)
	live, vol := s.Len(), s.Volume()
	ckpts := s.Checkpoints()
	if err := s.Close(); err != nil {
		return fail(err)
	}

	t0 := time.Now()
	s2, rep, err := realloc.OpenBlockStore(realloc.BlockStoreDir(dir), realloc.BlockStoreTelemetry(reg))
	if err != nil {
		return fail(fmt.Errorf("recovery: %w", err))
	}
	replay := time.Since(t0)
	if err := s2.CheckInvariants(); err != nil {
		return fail(fmt.Errorf("invariants after recovery: %w", err))
	}
	_ = s2.Close()

	snap := reg.Snapshot()
	fmt.Printf("== durable lane: %d ops in %s ==\n", ops, dir)
	fmt.Printf("churn:     %v (%.0f ops/s), %d live blocks, %d cells live volume\n",
		churn.Round(time.Millisecond), float64(ops)/churn.Seconds(), live, vol)
	fmt.Printf("ckpts:     %d (explicit + reallocator-forced), wal fsyncs: %d (p50=%v p99=%v)\n",
		ckpts, snap.WALFsync.Count,
		time.Duration(snap.WALFsync.Quantile(0.50)), time.Duration(snap.WALFsync.Quantile(0.99)))
	fmt.Printf("recovery:  %d blocks to checkpoint %d in %v (wal tail truncated: %d records)\n",
		rep.Recovered, rep.Seq, replay.Round(time.Microsecond), rep.WALTail)
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "reallocbench:", err)
	return 1
}
