package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"math/rand/v2"

	"realloc/internal/workload"
)

// workloadsJSON is the workload record: parameters, op mix, checkpoint
// policy, the reason each workload exists, the layers it loads, and the
// prediction table. The benchmark reads its parameters from it, so the
// record cannot drift from what runs.
//
//go:embed workloads.json
var workloadsJSON []byte

// spec is one workload's record.
type spec struct {
	Name             string         `json:"name"`
	Why              string         `json:"why"`
	Layers           []string       `json:"layers"`
	Clients          int            `json:"clients"`
	Sizes            sizeSpec       `json:"sizes"`
	LiveBlocks       int            `json:"live_blocks"`
	LiveBytes        int64          `json:"live_bytes"`
	Mix              map[string]int `json:"mix"`
	BatchSize        int            `json:"batch_size"`
	CheckpointEvery  int            `json:"checkpoint_every"`
	TimedCheckpoints int            `json:"timed_checkpoints"`
	WarmupOps        int            `json:"warmup_ops"`
	Setups           int            `json:"setups"`
	MaxSamples       int            `json:"max_samples"`
	DefaultSeed      uint64         `json:"default_seed"`
}

type sizeSpec struct {
	Dist  string  `json:"dist"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Alpha float64 `json:"alpha"`
}

// prediction is one row of the per-layer prediction table.
type prediction struct {
	Metric     string   `json:"metric"`
	ShouldMove []string `json:"should_move"`
	On         []string `json:"on"`
	NoChangeOn []string `json:"no_change_on"`
}

type record struct {
	Workloads   []spec       `json:"workloads"`
	Predictions []prediction `json:"predictions"`
}

func loadRecord() (record, error) {
	var r record
	if err := json.Unmarshal(workloadsJSON, &r); err != nil {
		return r, fmt.Errorf("workloads.json: %w", err)
	}
	return r, nil
}

func findSpec(name string) (spec, error) {
	r, err := loadRecord()
	if err != nil {
		return spec{}, err
	}
	for _, s := range r.Workloads {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// dist returns the workload's size distribution.
func (s sizeSpec) dist() workload.SizeDist {
	if s.Dist == "pareto" {
		return workload.Pareto{Min: s.Min, Max: s.Max, Alpha: s.Alpha}
	}
	return workload.Uniform{Min: s.Min, Max: s.Max}
}

// newRNG derives a client's deterministic generator from the run seed.
func newRNG(seed uint64, client int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^uint64(client+1)))
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// fillPayload writes the payload of object key under seed into p: a
// splitmix64 stream, so every (seed, key) has its own bytes and the
// replay can regenerate exactly what the facade was given.
func fillPayload(p []byte, seed, key uint64) {
	x := seed ^ (key * 0xbf58476d1ce4e5b9)
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, next())
		p = p[8:]
	}
	if len(p) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], next())
		copy(p, tail[:])
	}
}

func checksum(p []byte) uint64 { return crc64.Checksum(p, crcTable) }
