package core_test

// Worker-count invariance: the sharded pass engine must make EstimateTriangles
// a pure function of (stream order, Config) — the Workers knob may only change
// wall-clock, never a single bit of the Result. This is the determinism
// contract that lets experiments run with however many cores are available.

import (
	"path/filepath"
	"testing"

	"degentri/internal/core"
	"degentri/internal/gen"
	"degentri/internal/stream"
)

func TestWorkerCountInvariance(t *testing.T) {
	g := gen.HolmeKim(5000, 5, 0.6, 33)
	cfg := core.DefaultConfig(0.1, g.Degeneracy(), g.TriangleCount())
	cfg.CR, cfg.CL, cfg.CS = 16, 16, 8
	for _, rule := range []core.AssignmentRule{core.RuleLowestCount, core.RuleNone, core.RuleLowestDegree} {
		for _, seed := range []uint64{1, 7, 1234567} {
			runCfg := cfg
			runCfg.Rule = rule
			runCfg.Seed = seed
			var base core.Result
			for i, workers := range []int{1, 2, 4, 8} {
				runCfg.Workers = workers
				res, err := core.EstimateTriangles(stream.FromGraphShuffled(g, seed+100), runCfg)
				if err != nil {
					t.Fatalf("%v/seed=%d/workers=%d: %v", rule, seed, workers, err)
				}
				if i == 0 {
					base = res
				} else if res != base {
					t.Errorf("%v/seed=%d: workers=%d diverges from workers=1:\n  %+v\n  %+v",
						rule, seed, workers, res, base)
				}
			}
		}
	}
}

// TestWorkerCountInvarianceFileStreams runs the same invariance check over
// the disk-backed sources: the text stream (whose .bex v2 copy is written by
// the counting pass, after which passes go parallel) and the .bex binary stream
// (range-addressable from the start). All sources must agree with the
// in-memory stream as well.
func TestWorkerCountInvarianceFileStreams(t *testing.T) {
	g := gen.HolmeKim(3000, 4, 0.5, 17)
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	bex := filepath.Join(dir, "g.bex")
	if err := stream.WriteGraphFile(txt, g, "invariance"); err != nil {
		t.Fatal(err)
	}
	if _, err := stream.WriteBex2File(bex, stream.FromGraph(g), 64); err != nil {
		t.Fatal(err)
	}

	cfg := core.DefaultConfig(0.1, g.Degeneracy(), g.TriangleCount())
	cfg.CR, cfg.CL, cfg.CS = 16, 16, 8
	cfg.Seed = 5

	ref, err := core.EstimateTriangles(stream.FromGraph(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for _, path := range []string{txt, bex} {
			src, err := stream.OpenAuto(path)
			if err != nil {
				t.Fatal(err)
			}
			runCfg := cfg
			runCfg.Workers = workers
			res, err := core.EstimateTriangles(src, runCfg)
			src.Close()
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", filepath.Base(path), workers, err)
			}
			// File-backed sources that start with an unknown length spend one
			// extra counting pass (and scan); everything else must match the
			// in-memory reference exactly.
			res.Passes = ref.Passes
			res.Scans = ref.Scans
			if res != ref {
				t.Errorf("%s/workers=%d diverges from the in-memory run:\n  %+v\n  %+v",
					filepath.Base(path), workers, res, ref)
			}
		}
	}
}

// TestWorkerCountInvarianceTextWithoutCopy runs the text stream with TMPDIR
// pointing at a missing directory: the stream cannot write its .bex v2 copy,
// so every pass re-parses the text sequentially and RangeStream stays
// unavailable. The passes must still complete, and a 4-worker estimate must
// match the in-memory stream's bit for bit.
func TestWorkerCountInvarianceTextWithoutCopy(t *testing.T) {
	g := gen.HolmeKim(3000, 4, 0.5, 17)
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	if err := stream.WriteGraphFile(txt, g, "no copy"); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", filepath.Join(dir, "missing"))

	cfg := core.DefaultConfig(0.1, g.Degeneracy(), g.TriangleCount())
	cfg.CR, cfg.CL, cfg.CS = 16, 16, 8
	cfg.Seed = 5
	ref, err := core.EstimateTriangles(stream.FromGraph(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := stream.OpenFile(txt)
	defer src.Close()
	cfg.Workers = 4
	res, err := core.EstimateTriangles(src, cfg)
	if err != nil {
		t.Fatalf("text without a copy: %v", err)
	}
	if _, ok := src.RangeStream(0, 0); ok {
		t.Fatal("text stream offered range access without a copy")
	}
	// The text starts with an unknown length, so it spends one extra counting
	// pass (and scan); everything else must match the in-memory run exactly.
	res.Passes = ref.Passes
	res.Scans = ref.Scans
	if res != ref {
		t.Errorf("text without a copy diverges from the in-memory run:\n  %+v\n  %+v", res, ref)
	}
}
