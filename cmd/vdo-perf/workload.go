package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"path"
	"sort"
	"strings"
	"time"

	"veridevops/internal/loadgen"
)

//go:embed workloads/*.json
var workloadFiles embed.FS

// Evaluation cadence, fixed for every workload: the vdo-serve shape.
const (
	// tick is the flush window: each tick admits the due events and, in
	// push mode, flushes them.
	tick = 10 * time.Millisecond
	// fallbackEvery is the push-mode safety-net sweep interval.
	fallbackEvery = 500 * time.Millisecond
	// sweepEvery is the batch-mode incremental sweep interval.
	sweepEvery = 250 * time.Millisecond
	// shards matches the two CPUs the benchmark is sized for; workers 1
	// keeps the process at one busy goroutine per shard.
	shards  = 2
	workers = 1
)

// workload is one churn traffic shape: the event mix, the offered rate and
// whether a Streamer (push) or incremental sweeps (sweep) evaluate it.
type workload struct {
	Name string           `json:"-"`
	Mode string           `json:"mode"`
	Rate float64          `json:"rate"`
	Mix  loadgen.ChurnMix `json:"mix"`
}

func (w workload) push() bool { return w.Mode == "push" }

// topology is the built-in fleet shape with the workload's churn mix.
func (w workload) topology() loadgen.Topology {
	top := loadgen.DefaultTopology()
	top.Mix = w.Mix
	return top
}

// evalPeriod is the interval between Sweep calls: fallback sweeps in push
// mode, the evaluating sweeps in sweep mode.
func (w workload) evalPeriod() time.Duration {
	if w.push() {
		return fallbackEvery
	}
	return sweepEvery
}

// loadWorkloads parses every embedded workload file, sorted by name.
func loadWorkloads() ([]workload, error) {
	entries, err := workloadFiles.ReadDir("workloads")
	if err != nil {
		return nil, err
	}
	var out []workload
	for _, e := range entries {
		data, err := workloadFiles.ReadFile(path.Join("workloads", e.Name()))
		if err != nil {
			return nil, err
		}
		w, err := parseWorkload(strings.TrimSuffix(e.Name(), ".json"), data)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func parseWorkload(name string, data []byte) (workload, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	w := workload{Name: name}
	if err := dec.Decode(&w); err != nil {
		return workload{}, fmt.Errorf("workload %s: %w", name, err)
	}
	if w.Mode != "push" && w.Mode != "sweep" {
		return workload{}, fmt.Errorf("workload %s: mode %q, want push or sweep", name, w.Mode)
	}
	if w.Rate <= 0 {
		return workload{}, fmt.Errorf("workload %s: rate %v, need > 0", name, w.Rate)
	}
	if err := w.topology().Validate(); err != nil {
		return workload{}, fmt.Errorf("workload %s: %w", name, err)
	}
	return w, nil
}
