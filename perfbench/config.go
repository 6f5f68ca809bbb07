package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
)

// workloadsJSON fixes every rate, ladder step, latency limit and input size
// the benchmark uses. None of them is derived from the code under test, so
// two commits are always measured against the same load.
//
//go:embed workloads.json
var workloadsJSON []byte

// Config is the parsed workloads.json.
type Config struct {
	Cores         int                 `json:"cores"`
	K             int                 `json:"k"`
	WarmupSeconds float64             `json:"warmup_seconds"`
	NominalShare  float64             `json:"nominal_share"`
	World         WorldSpec           `json:"serving_world"`
	Train         TrainSpec           `json:"train"`
	Workloads     map[string]Workload `json:"workloads"`
	EndToEnd      map[string]string   `json:"end_to_end"`
	PerLayer      map[string]struct {
		Moves     string   `json:"moves"`
		Workloads []string `json:"workloads"`
		How       string   `json:"how"`
	} `json:"per_layer"`

	// Workers caps every goroutine pool the benchmark starts or asks the
	// program for (load generator and connections, training, evaluation):
	// the machine's processors, at most Cores.
	Workers int `json:"-"`
}

// WorldSpec sizes the synthetic serving model: datagen ground truth on the
// profile's full item catalog for BaseUsers users, replicated with factor
// jitter up to Users users so the user base dwarfs the result cache.
type WorldSpec struct {
	Profile    string  `json:"profile"`
	BaseUsers  int     `json:"base_users"`
	Users      int     `json:"users"`
	UserJitter float64 `json:"user_jitter"`
	BiasScale  float64 `json:"bias_scale"`
}

// TrainSpec sizes train-dss: the profile scaled by Scale (users and items
// scaled, density kept). The step budget is StepsPerSecond times the
// --seconds argument, so it is fixed for a fixed run length. Segment
// times are reported per PerSteps steps.
type TrainSpec struct {
	Profile        string  `json:"profile"`
	Scale          float64 `json:"scale"`
	PerSteps       int     `json:"per_steps"`
	StepsPerSecond int     `json:"steps_per_second"`
}

// Mix is the share of each request kind in a serving schedule.
type Mix struct {
	Known float64 `json:"known"`
	Cold  float64 `json:"cold"`
	Batch float64 `json:"batch"`
	Write float64 `json:"write"`
}

// Workload is one entry of workloads.json (its why, stresses, bypasses
// and assumptions fields document the choice and are not read).
type Workload struct {
	Kind         string    `json:"kind"`
	Setups       int       `json:"setups"`
	Target       string    `json:"target"`
	Users        string    `json:"users"` // "uniform" or "activity"
	Rate         float64   `json:"rate"`
	LimitMs      float64   `json:"limit_ms"`
	Ladder       []float64 `json:"ladder"`
	Mix          Mix       `json:"mix"`
	BatchEntries int       `json:"batch_entries"`
}

func loadConfig() (*Config, error) {
	var c Config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	c.Workers = min(runtime.NumCPU(), c.Cores)
	for name, w := range c.Workloads {
		if w.Setups < 1 {
			return nil, fmt.Errorf("workloads.json: %s needs at least one set-up", name)
		}
		if w.Kind != "serve" {
			continue
		}
		if w.Users != "uniform" && w.Users != "activity" {
			return nil, fmt.Errorf("workloads.json: %s users %q, want uniform or activity", name, w.Users)
		}
		m := w.Mix
		if s := m.Known + m.Cold + m.Batch + m.Write; math.Abs(s-1) > 1e-9 {
			return nil, fmt.Errorf("workloads.json: %s mix sums to %g", name, s)
		}
		if w.Rate <= 0 || w.LimitMs <= 0 || len(w.Ladder) == 0 || !sort.Float64sAreSorted(w.Ladder) {
			return nil, fmt.Errorf("workloads.json: %s needs a rate, a limit and an ascending ladder", name)
		}
	}
	return &c, nil
}
