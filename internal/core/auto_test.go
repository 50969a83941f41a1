package core

import (
	"errors"
	"math"
	"testing"

	"degentri/internal/gen"
	"degentri/internal/sampling"
	"degentri/internal/sched"
	"degentri/internal/stream"
)

func TestAutoEstimateEmptyStream(t *testing.T) {
	// Consistent with the facade's ErrNoEdges: an empty stream is an error,
	// not a silent zero estimate.
	cfg := DefaultConfig(0.2, 1, 1)
	res, err := AutoEstimate(stream.FromEdges(nil), cfg)
	if !errors.Is(err, ErrNoEdges) {
		t.Fatalf("expected ErrNoEdges, got %v", err)
	}
	if res.Estimate != 0 {
		t.Fatalf("estimate %v", res.Estimate)
	}
}

func TestAutoEstimateInvalidConfig(t *testing.T) {
	cfg := DefaultConfig(0.2, 1, 1)
	cfg.CR = 0
	if _, err := AutoEstimate(stream.FromEdges(nil), cfg); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestAutoEstimateWheel(t *testing.T) {
	g := gen.Wheel(1000)
	truth := float64(g.TriangleCount())
	cfg := DefaultConfig(0.2, 3, 1) // TGuess is ignored by AutoEstimate
	cfg.CR, cfg.CL, cfg.CS = 8, 8, 8
	var sum float64
	trials := 6
	for i := 0; i < trials; i++ {
		cfg.Seed = uint64(100 * (i + 1))
		res, err := AutoEstimate(stream.FromGraphShuffled(g, uint64(i+1)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Passes < 6 {
			t.Fatalf("auto-estimate used only %d passes", res.Passes)
		}
		sum += res.Estimate
	}
	rel := sampling.RelativeError(sum/float64(trials), truth)
	if rel > 0.35 {
		t.Fatalf("auto-estimate relative error %.3f", rel)
	}
}

func TestAutoEstimateTriangleFreeConverges(t *testing.T) {
	// On a triangle-free graph the search must terminate (guess reaches 1)
	// and report an estimate of 0.
	g := gen.Grid(15, 15)
	cfg := DefaultConfig(0.25, 2, 1)
	res, err := AutoEstimate(stream.FromGraphShuffled(g, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 {
		t.Fatalf("estimate %v on triangle-free graph", res.Estimate)
	}
}

func TestAutoEstimateRespectsSpaceCutoff(t *testing.T) {
	g := gen.Grid(20, 20) // triangle-free, so the search wants to descend far
	cfg := DefaultConfig(0.25, 2, 1)
	cfg.MaxSpaceWords = 500
	res, err := AutoEstimate(stream.FromGraphShuffled(g, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("expected the search to stop at the space cutoff")
	}
}

func TestAutoEstimateBarabasiAlbert(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 4, 23)
	truth := float64(g.TriangleCount())
	cfg := DefaultConfig(0.15, 4, 1)
	cfg.CR, cfg.CL, cfg.CS = 8, 8, 8
	var sum float64
	trials := 5
	for i := 0; i < trials; i++ {
		cfg.Seed = uint64(55 * (i + 1))
		res, err := AutoEstimate(stream.FromGraphShuffled(g, uint64(i+3)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Estimate
	}
	rel := sampling.RelativeError(sum/float64(trials), truth)
	if rel > 0.4 {
		t.Fatalf("auto-estimate BA relative error %.3f", rel)
	}
}

// TestEarlyRejectionIsSafe replays searches at SpecWidth 1 probe by probe and
// pins that early rejection drops only doomed probes: a probe is rejected
// after pass 4 exactly when its closed-wedge bound is below its guess, and
// every rejected probe estimates below its guess when run to completion. Each replay
// is tied to its search: with the confirmation run it makes the search's
// logical passes and returns the search's estimate bit for bit. The searches
// run with degrees counted and with a degree oracle.
func TestEarlyRejectionIsSafe(t *testing.T) {
	g := gen.HolmeKim(4000, 5, 0.6, 21)
	src := stream.FromGraphShuffled(g, 5)
	m := g.NumEdges()
	deg := make([]int32, g.NumVertices())
	for v := range deg {
		deg[v] = int32(g.Degree(v))
	}
	run := func(cfg Config, oracle []int32, reject bool) Result {
		t.Helper()
		est := NewEstimator(cfg)
		est.UseDegrees(oracle)
		est.rejectBelowGuess = reject
		res, err := est.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rejected, closedRejected := 0, 0
	for _, oracle := range [][]int32{nil, deg} {
		for seed := uint64(1); seed <= 4; seed++ {
			cfg := DefaultConfig(0.1, 3*g.Degeneracy(), 1)
			cfg.CR, cfg.CL, cfg.CS = 8, 8, 4
			cfg.Seed, cfg.SpecWidth, cfg.Workers = seed, 1, 2
			sch := sched.New(src, m, 2)
			c := sch.NewClient()
			search, err := AutoEstimateFrom(c, cfg, oracle)
			c.Done()
			if err != nil {
				t.Fatal(err)
			}

			passes, accepted := 0, -1
			var last Result
			for attempt := 0; accepted < 0; attempt++ {
				pc := probeConfig(cfg, m, attempt)
				res := run(pc, oracle, pc.TGuess > 1)
				passes += res.Passes
				// The full run's closed-wedge bound, (m/r)·d_R·found/ℓ, decides.
				full := run(pc, oracle, false)
				bound := float64(m) / float64(full.SampledEdges) * float64(full.DR) * (float64(full.TrianglesFound) / float64(full.Instances))
				if want := pc.TGuess > 1 && bound < float64(pc.TGuess); res.Rejected != want {
					t.Errorf("oracle=%t seed %d attempt %d: rejected=%t with bound %v at guess %d, want %t",
						oracle != nil, seed, attempt, res.Rejected, bound, pc.TGuess, want)
				}
				if res.Rejected {
					rejected++
					if res.TrianglesFound > 0 {
						closedRejected++
					}
					if !(full.Estimate < float64(pc.TGuess)) {
						t.Errorf("oracle=%t seed %d attempt %d: rejected after pass 4, but the full run estimates %v ≥ its guess %d",
							oracle != nil, seed, attempt, full.Estimate, pc.TGuess)
					}
					continue
				}
				if res.Estimate >= float64(pc.TGuess) || pc.TGuess == 1 {
					accepted, last = attempt, res
				}
			}
			if last.Estimate > 0 {
				last = run(confirmConfig(cfg, accepted, last.Estimate), oracle, false)
				passes += last.Passes
			}
			if search.Passes != passes || math.Float64bits(search.Estimate) != math.Float64bits(last.Estimate) {
				t.Errorf("oracle=%t seed %d: search %v in %d passes, replay %v in %d",
					oracle != nil, seed, search.Estimate, search.Passes, last.Estimate, passes)
			}
		}
	}
	if closedRejected == 0 {
		t.Fatalf("%d probes rejected, none with a closed wedge: the bound was never tested", rejected)
	}
	t.Logf("%d probes rejected, %d of them with closed wedges", rejected, closedRejected)
}
