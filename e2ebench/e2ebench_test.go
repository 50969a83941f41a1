package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// smallScale runs every workload on inputs of about 10⁵ edges.
var smallScale = scale{powerlawN: 12_500, powerlawAvgDeg: 16, planarInsertions: 33_000}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestSpecMatchesBenchmarkJSON checks that spec.json and BENCHMARK.json
// declare the same workloads and the same result-line metrics, with the
// same units and directions.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for i, w := range bj.Workloads {
		names = append(names, w.Name)
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: spec.json has %q, BENCHMARK.json %q (or their why differs)", i, spec.Workloads[i].Name, w.Name)
		}
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloads)
	}
	for level, declared := range map[string][]benchmarkMetric{levelEndToEnd: bj.EndToEnd, levelPerLayer: bj.PerLayer} {
		var inSpec []string
		for _, ms := range spec.Metrics {
			if ms.Level == level {
				inSpec = append(inSpec, ms.Name)
			}
		}
		var inJSON []string
		for _, m := range declared {
			inJSON = append(inJSON, m.Name)
			ms, ok := specMetric(m.Name)
			switch {
			case !ok:
				t.Errorf("%s metric %s is missing from spec.json", level, m.Name)
			case ms.Unit != m.Unit || ms.Better != m.Better || ms.Level != level:
				t.Errorf("%s: BENCHMARK.json says %s/%s/%s, spec.json %s/%s/%s", m.Name, m.Unit, m.Better, level, ms.Unit, ms.Better, ms.Level)
			}
		}
		if !slices.Equal(inSpec, inJSON) {
			t.Errorf("%s metrics differ:\nspec.json      %v\nBENCHMARK.json %v", level, inSpec, inJSON)
		}
	}
	for _, ms := range spec.Metrics {
		if !metricName.MatchString(ms.Name) {
			t.Errorf("metric name %q does not match %s", ms.Name, metricName)
		}
	}
}

// TestWorkloadsSmall runs every workload, untraced and traced, on small
// inputs, and checks the output contract: a correct result line carrying
// exactly the level's metrics of BENCHMARK.json with their units, each
// printed once on the report lines, and nothing left running or listening.
func TestWorkloadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
			}
			name := w
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				listeners := loopbackListeners(t)
				goroutines := runtime.NumGoroutine()
				var out bytes.Buffer
				dir := t.TempDir()
				res, err := run(config{
					workload: w, seed: 7, seconds: time.Second, trace: trace,
					scale: smallScale, setups: setupRepeats, workers: 2,
					outDir: dir, stdout: &out,
				})
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, out.String())
				}
				checkOutput(t, out.String(), want)

				if n := runtime.NumGoroutine(); n > goroutines {
					t.Errorf("%d goroutines after the run, %d before", n, goroutines)
				}
				if after := loopbackListeners(t); !slices.Equal(after, listeners) {
					t.Errorf("listening sockets before %v, after %v", listeners, after)
				}
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if strings.HasPrefix(e.Name(), "inputs-") {
						t.Errorf("input directory %s survived the run", e.Name())
					}
				}
			})
		}
	}
}

// checkOutput checks the result line and the report lines against the
// metrics the result line must carry.
func checkOutput(t *testing.T, out string, want []benchmarkMetric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("result line has %d metrics, want %d", len(res.Metrics), len(want))
	}
	printed := map[string][]string{} // name → units printed on report lines
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 4 && f[0] == "metric" {
			printed[f[1]] = append(printed[f[1]], f[3])
		}
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("result line: %s = %+v, want unit %s", m.Name, got, m.Unit)
		}
		if units := printed[m.Name]; len(units) != 1 || units[0] != m.Unit {
			t.Errorf("report lines print %s with units %v, want once with %s", m.Name, units, m.Unit)
		}
	}
	for name, units := range printed {
		if len(units) != 1 {
			t.Errorf("report lines print %s %d times", name, len(units))
		}
	}
}

// loopbackListeners lists the listening TCP sockets on 127.0.0.1 from
// /proc/net/tcp (hex address:port of state 0A).
func loopbackListeners(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile("/proc/net/tcp")
	if err != nil {
		t.Skipf("cannot list sockets: %v", err)
	}
	var out []string
	for _, line := range strings.Split(string(b), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) > 3 && f[3] == "0A" && strings.HasPrefix(f[1], "0100007F:") {
			out = append(out, f[1])
		}
	}
	slices.Sort(out)
	return out
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, v, ok := tailPercentile(xs); !ok || p != 90 || v != 90 {
		t.Errorf("100 samples: p%d = %v (ok %t), want p90 = 90", p, v, ok)
	}
	if _, _, ok := tailPercentile(xs[:19]); ok {
		t.Error("19 samples have no percentile from 50 up with 10 beyond it")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestCovered(t *testing.T) {
	spans := []span{{Start: 0, End: 10}, {Start: 5, End: 20}, {Start: 30, End: 40}}
	if got := covered(spans); got != 30 {
		t.Errorf("covered = %d, want 30", got)
	}
}
