package exp

import (
	"strings"
	"testing"

	"degentri/internal/core"
	"degentri/internal/gen"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("T1", "A test table", "a", "b")
	tab.AddRow("1", "2")
	tab.AddRow("3")           // short row gets padded
	tab.AddRow("4", "5", "6") // long row gets truncated
	tab.AddNote("note %d", 7)
	md := tab.Markdown()
	if !strings.Contains(md, "### T1 — A test table") || !strings.Contains(md, "| 1 | 2 |") {
		t.Fatalf("markdown rendering broken:\n%s", md)
	}
	if !strings.Contains(md, "note 7") {
		t.Error("note missing")
	}
	if !strings.Contains(md, "| 3 |  |") {
		t.Errorf("padded row missing from markdown:\n%s", md)
	}
}

func TestFormatHelpers(t *testing.T) {
	if FormatCount(123) != "123" {
		t.Error(FormatCount(123))
	}
	if FormatCount(45_000) != "45.0k" {
		t.Error(FormatCount(45_000))
	}
	if FormatCount(2_500_000) != "2.50M" {
		t.Error(FormatCount(2_500_000))
	}
	if FormatCount(3_000_000_000) != "3.00G" {
		t.Error(FormatCount(3_000_000_000))
	}
	if FormatFloat(0.12345) != "0.123" {
		t.Error(FormatFloat(0.12345))
	}
	if FormatPercent(0.25) != "25.0%" {
		t.Error(FormatPercent(0.25))
	}
}

func TestScaleHelpers(t *testing.T) {
	if ScaleSmoke.String() != "smoke" || ScaleDefault.String() != "default" || ScaleFull.String() != "full" {
		t.Error("scale strings")
	}
	if Scale(9).String() == "" {
		t.Error("unknown scale should render")
	}
	if ScaleSmoke.pick(1, 2, 3) != 1 || ScaleDefault.pick(1, 2, 3) != 2 || ScaleFull.pick(1, 2, 3) != 3 {
		t.Error("pick broken")
	}
}

func TestWorkloadBasics(t *testing.T) {
	w := NewWorkload("wheel", gen.Wheel(50), 3)
	if w.M != 98 || w.T != 49 || w.Kappa != 3 {
		t.Fatalf("workload ground truth wrong: %+v", w)
	}
	s := w.Stream(0)
	if m, ok := s.Len(); !ok || m != 98 {
		t.Fatal("stream length")
	}
	if w.TheoreticalBound() <= 0 {
		t.Fatal("theoretical bound")
	}
	triFree := NewWorkload("grid", gen.Grid(4, 4), 1)
	if triFree.TheoreticalBound() <= 0 {
		t.Fatal("triangle-free bound should still be positive")
	}
}

func TestWorkloadSuitesNonEmpty(t *testing.T) {
	if len(StandardWorkloads(ScaleSmoke)) == 0 ||
		len(WheelWorkloads(ScaleSmoke)) == 0 ||
		len(KappaSweepWorkloads(ScaleSmoke)) == 0 ||
		len(SkewedWorkloads(ScaleSmoke)) == 0 {
		t.Fatal("workload suites must be non-empty")
	}
	for _, w := range StandardWorkloads(ScaleSmoke) {
		if w.T <= 0 {
			t.Errorf("standard workload %s has no triangles", w.Name)
		}
		if w.Kappa <= 0 || w.M <= 0 {
			t.Errorf("workload %s has degenerate parameters", w.Name)
		}
	}
}

func TestRunTrials(t *testing.T) {
	if _, err := RunTrials(func(int) (core.Result, error) { return core.Result{}, nil }, 0, 1); err == nil {
		t.Fatal("trials=0 should fail")
	}
	stats, err := RunTrials(func(trial int) (core.Result, error) {
		return core.Result{Estimate: 100, SpaceWords: int64(10 + trial), Passes: 6}, nil
	}, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MedianRelErr != 0 || stats.MeanEstimate != 100 || stats.Passes != 6 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.MaxSpace != 14 || stats.MeanSpace != 12 {
		t.Fatalf("space stats %+v", stats)
	}
}

func TestCoreRunnerAndDefaultConfig(t *testing.T) {
	w := NewWorkload("wheel", gen.Wheel(200), 3)
	cfg := DefaultCoreConfig(w, 0.2)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	run := CoreRunner(w, cfg)
	res, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgesInStream != w.M {
		t.Fatalf("m = %d", res.EdgesInStream)
	}
	// Triangle-free workload still yields a valid config (TGuess clamped).
	grid := NewWorkload("grid", gen.Grid(5, 5), 1)
	if err := DefaultCoreConfig(grid, 0.2).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryAndFind(t *testing.T) {
	reg := Registry()
	if len(reg) != 13 {
		t.Fatalf("registry has %d experiments, want 13", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Find("E3"); !ok {
		t.Fatal("E3 not found")
	}
	if _, ok := Find("E99"); ok {
		t.Fatal("E99 should not exist")
	}
}

// TestAllExperimentsSmoke runs every registered experiment at smoke scale and
// checks that each produces at least one non-empty table. This is the
// integration test of the whole pipeline: generators → streams → estimators →
// tables.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke experiments skipped in -short mode")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(ScaleSmoke)
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Errorf("%s table %s has no rows", e.ID, tab.ID)
				}
				if tab.Markdown() == "" {
					t.Errorf("%s table %s renders empty", e.ID, tab.ID)
				}
			}
		})
	}
}

func TestPackEdge(t *testing.T) {
	if packEdge(1, 2) == packEdge(2, 1) {
		t.Error("packEdge should be order sensitive (callers normalize)")
	}
	if packEdge(1, 2) == packEdge(1, 3) {
		t.Error("collision")
	}
}
