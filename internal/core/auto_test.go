package core

import (
	"errors"
	"testing"

	"degentri/internal/gen"
	"degentri/internal/sampling"
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
