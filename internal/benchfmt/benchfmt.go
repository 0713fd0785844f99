// Package benchfmt defines the shared schema of BENCH_<id>.json
// performance-trajectory files and parses `go test -bench` output.
//
// Two producers write these files: cmd/reallocbench (one per experiment
// run) and cmd/benchgate (one per CI benchmark-gate run). Keeping the
// schema here, with a run-level manifest pinning the environment, makes
// records from different PRs comparable: tooling can diff findings across
// a directory of BENCH_*.json files knowing which commit, Go version, and
// parallelism produced each.
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Record is the schema of a BENCH_<id>.json trajectory file.
type Record struct {
	ID        string             `json:"id"`
	Title     string             `json:"title"`
	Claim     string             `json:"claim"`
	Seed      uint64             `json:"seed"`
	Ops       int                `json:"ops,omitempty"`
	Core      string             `json:"core,omitempty"`
	Backend   string             `json:"backend,omitempty"`
	Quick     bool               `json:"quick"`
	Timestamp time.Time          `json:"timestamp"`
	GoVersion string             `json:"go_version"`
	Seconds   float64            `json:"seconds"`
	Findings  map[string]float64 `json:"findings"`
	Manifest  Manifest           `json:"manifest"`
}

// Manifest pins the environment of one benchmark run.
type Manifest struct {
	GitSHA     string `json:"git_sha,omitempty"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPU is the number of CPUs the process may run on (what nproc
	// prints); parallel-scaling limits are derated by it.
	NumCPU int `json:"num_cpu"`
}

// CurrentManifest captures the running process's environment. The commit
// comes from GITHUB_SHA (set by CI) or, failing that, from git itself;
// records written outside a repository simply omit it.
func CurrentManifest() Manifest {
	m := Manifest{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		m.GitSHA = sha
		return m
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.GitSHA = strings.TrimSpace(string(out))
	}
	return m
}

// Result is one parsed benchmark result line.
type Result struct {
	Name        string // full name, trailing -GOMAXPROCS suffix stripped
	Procs       int    // the stripped -GOMAXPROCS suffix; 1 when absent
	Iters       int64
	NsPerOp     float64
	BytesPerOp  float64 // -1 when the line carries no -benchmem columns
	AllocsPerOp float64 // -1 when the line carries no -benchmem columns
}

// ParseBench extracts benchmark result lines ("BenchmarkX-8 N ns/op ...")
// from go test -bench output, ignoring everything else.
func ParseBench(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		name, procs := splitProcs(fields[0])
		res := Result{Name: name, Procs: procs, Iters: iters, NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1}
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// splitProcs splits off the trailing -N GOMAXPROCS suffix of a benchmark
// name (the name itself may contain dashes, so only a trailing all-digit
// segment goes). Results without a suffix report 1 proc, matching go
// test's convention of omitting -1. A `-cpu 1,2,4,8` sweep produces one
// Result per proc count under the same stripped Name, which is what the
// scaling gate compares.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil || procs < 1 {
		return name, 1
	}
	return name[:i], procs
}

// NsPerOp returns the fastest ns/op among the results named name; with
// procs > 0, only among those at that GOMAXPROCS count (a -cpu sweep
// gives one name a result per count). Scheduler and cache noise on
// shared CI runners is strictly additive, so over a -count repeat run
// the minimum converges on the true cost instead of wandering with the
// noise the way a single sample does. The minimum of one sample is
// that sample.
func NsPerOp(results []Result, name string, procs int) (float64, error) {
	best, found := 0.0, false
	for _, r := range results {
		if r.Name == name && (procs <= 0 || r.Procs == procs) && (!found || r.NsPerOp < best) {
			best, found = r.NsPerOp, true
		}
	}
	if !found {
		if procs > 0 {
			return 0, fmt.Errorf("benchfmt: no result named %q at %d procs", name, procs)
		}
		return 0, fmt.Errorf("benchfmt: no result named %q", name)
	}
	return best, nil
}
