package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric declared in BENCHMARK.json. Bound is only set
// for end-to-end metrics.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json. The file is the single source of metric
// names and units: the command looks units up in it when it prints a result
// and refuses to emit a metric the file does not declare.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 || len(s.Workloads) == 0 {
		return nil, fmt.Errorf("%s: workloads, end_to_end and per_layer must be non-empty", path)
	}
	return &s, nil
}

// metricValue is one reported number in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult turns a workload's measured values into the result line for
// the given mode: every end-to-end metric untraced, every per-layer metric
// traced. An end-to-end metric must have been measured; a per-layer metric
// the workload's path does not exercise reads 0 (bench/README.md lists which
// workload produces which). A measured name the spec does not declare is a
// bug in the command.
func buildResult(spec *benchSpec, traced bool, out *outcome) (result, error) {
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	declared := map[string]bool{}
	for _, m := range spec.EndToEnd {
		declared[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		declared[m.Name] = true
	}
	for name := range out.values {
		if !declared[name] {
			return result{}, fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		}
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range want {
		v, ok := out.values[m.Name]
		if !ok && !traced {
			return result{}, fmt.Errorf("end-to-end metric %q was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// outcome is what a workload hands back: measured values by metric name,
// the operation counts, and every failed output check in words.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// fail records one failed operation or output check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}
