package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// BENCHMARK.json at the repository root is the single declaration of the
// benchmark: workloads, end-to-end metrics with their regression bounds,
// and the per-layer ledger. The program loads it at start so that units,
// bounds and the set of names it must emit are never stated twice.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec reads BENCHMARK.json from the working directory (the checkout
// root, where the run command starts) or its parent (where `go test`
// runs the package).
func loadSpec() (*benchSpec, error) {
	var blob []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if blob, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("load spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("load spec: BENCHMARK.json: %w", err)
	}
	seen := map[string]bool{}
	check := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("load spec: bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("load spec: name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := check(w.Name); err != nil {
			return nil, err
		}
	}
	for _, m := range append(append([]metricSpec{}, s.EndToEnd...), s.PerLayer...) {
		if err := check(m.Name); err != nil {
			return nil, err
		}
	}
	return &s, nil
}

func (s *benchSpec) workload(name string) (workloadSpec, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
