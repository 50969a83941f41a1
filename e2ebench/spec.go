package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// spec.json is the benchmark's description: workloads with their generator
// parameters, every metric with its unit, direction, class and level, the
// map of layer metrics to the end-to-end metrics they move, and the
// pass-order-to-kind map the traced run labels passes with.
//
//go:embed spec.json
var specJSON []byte

// Metric levels: which line of output carries a metric.
const (
	levelEndToEnd = "end_to_end" // the result line of an untraced run
	levelPerLayer = "per_layer"  // the result line of a traced run
	levelReport   = "report"     // the report lines only
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	Metrics   []metricSpec `json:"metrics"`
	PassOrder passOrder    `json:"pass_order"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Class  string `json:"class"`
	Level  string `json:"level"`
}

// passOrder maps a decomposed run's pass order to pass kinds: the peel makes
// its First passes and then any number of Rest passes; the fixed run makes
// exactly FixedRun.
type passOrder struct {
	Peel struct {
		First []string `json:"first"`
		Rest  string   `json:"rest"`
	} `json:"peel"`
	FixedRun []string `json:"fixed_run"`
}

var spec = mustParseSpec(specJSON)

func mustParseSpec(b []byte) benchSpec {
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		panic(fmt.Sprintf("e2ebench: spec.json: %v", err))
	}
	return s
}

func specMetric(name string) (metricSpec, bool) {
	for _, m := range spec.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// passKinds lists every pass kind the pass-order map names, in map order.
func passKinds() []string {
	kinds := append([]string{}, spec.PassOrder.Peel.First...)
	kinds = append(kinds, spec.PassOrder.Peel.Rest)
	return append(kinds, spec.PassOrder.FixedRun...)
}
