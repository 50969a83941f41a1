package core_test

// Refactor-equivalence pins for the shared pass framework (internal/passes):
// the golden cases of golden_test.go — whose expected values predate the
// framework — must hold bit for bit at every worker count (1/2/4/8) and over
// every stream backend (in-memory, text file, flat .bex v1, block-indexed
// .bex v2, sharded .bexd). Combined with the clique golden
// suite this is the guarantee that moving the pass plumbing into
// internal/passes changed no realized randomness anywhere — and that no
// storage format does either.

import (
	"os"
	"path/filepath"
	"testing"

	"degentri/internal/core"
	"degentri/internal/stream"
)

func TestGoldenEquivalenceAcrossWorkersAndBackends(t *testing.T) {
	graphs := goldenGraphs()
	dir := t.TempDir()

	// Write each workload's stream once, in the exact shuffled order the
	// in-memory goldens use, so every backend replays identical streams.
	type backend struct {
		name        string
		open        func(cache bool) (stream.Stream, func(), error)
		extraPasses int  // counting pass for sources of unknown length
		v2          bool // has a block decode engine: run every decode mode
	}
	backends := map[string][]backend{}
	for name, w := range graphs {
		txt := filepath.Join(dir, name+".txt")
		bex1 := filepath.Join(dir, name+".v1"+stream.BexExt)
		bex2 := filepath.Join(dir, name+stream.BexExt)
		bexd := filepath.Join(dir, name+stream.BexdExt)
		f, err := os.Create(txt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stream.WriteEdgeList(f, stream.FromGraphShuffled(w.g, w.streamSeed)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := stream.WriteBexFile(bex1, stream.FromGraphShuffled(w.g, w.streamSeed)); err != nil {
			t.Fatal(err)
		}
		// Tiny blocks and parts so even these small goldens span several
		// blocks and .bexd parts (the interesting decode/chain paths).
		if _, err := stream.WriteBex2File(bex2, stream.FromGraphShuffled(w.g, w.streamSeed), 16); err != nil {
			t.Fatal(err)
		}
		if _, err := stream.WriteBexd(bexd, stream.FromGraphShuffled(w.g, w.streamSeed), 16, 64); err != nil {
			t.Fatal(err)
		}
		g, seed := w.g, w.streamSeed
		openFile := func(path string) func(bool) (stream.Stream, func(), error) {
			return func(cache bool) (stream.Stream, func(), error) {
				src, err := stream.OpenAutoOpts(path, stream.OpenOptions{DecodeCache: cache})
				if err != nil {
					return nil, nil, err
				}
				return src, func() { src.Close() }, nil
			}
		}
		backends[name] = []backend{
			{"memory", func(bool) (stream.Stream, func(), error) {
				return stream.FromGraphShuffled(g, seed), func() {}, nil
			}, 0, false},
			{"text", openFile(txt), 1, false},
			{"bex1", openFile(bex1), 0, false},
			{"bex2", openFile(bex2), 0, true},
			{"bexd", openFile(bexd), 0, true},
		}
	}

	// Decode modes: the v2-family backends additionally run under every
	// {kernel} × {decoded-block cache} combination — all four must realize
	// the golden values bit for bit (PR 10's decode engine is an I/O
	// optimization, never an estimator change). Other backends have no block
	// decoder and run the default mode once.
	type decodeMode struct {
		name  string
		simd  bool
		cache bool
	}
	defaultMode := decodeMode{"", stream.SIMDDecodeEnabled(), false}
	v2Modes := []decodeMode{
		defaultMode,
		{"/scalar", false, false},
		{"/cache", stream.SIMDDecodeEnabled(), true},
		{"/scalar+cache", false, true},
	}
	defer stream.SetSIMDDecode(true)
	defer stream.SetDecodeCacheBudget(stream.DefaultDecodeCacheBytes)

	for _, gc := range goldenCases {
		w := graphs[gc.workload]
		cfg := core.DefaultConfig(0.1, w.g.Degeneracy(), w.g.TriangleCount())
		cfg.CR, cfg.CL, cfg.CS = 16, 16, 8
		cfg.Rule = gc.rule
		cfg.Seed = gc.seed

		for _, workers := range []int{1, 2, 4, 8} {
			for _, b := range backends[gc.workload] {
				modes := []decodeMode{defaultMode}
				if b.v2 {
					modes = v2Modes
				}
				for _, mode := range modes {
					stream.SetSIMDDecode(mode.simd)
					src, closeSrc, err := b.open(mode.cache)
					if err != nil {
						t.Fatal(err)
					}
					runCfg := cfg
					runCfg.Workers = workers
					res, err := core.EstimateTriangles(src, runCfg)
					closeSrc()
					stream.SetSIMDDecode(true)
					label := gc.workload + "/" + b.name + mode.name
					if err != nil {
						t.Fatalf("%s/%v/seed=%d/workers=%d: %v", label, gc.rule, gc.seed, workers, err)
					}
					if res.Estimate != gc.estimate {
						t.Errorf("%s/%v/seed=%d/workers=%d: estimate = %.17g, golden %.17g",
							label, gc.rule, gc.seed, workers, res.Estimate, gc.estimate)
					}
					if res.TrianglesFound != gc.found || res.TrianglesAssigned != gc.assigned ||
						res.DistinctTriangles != gc.distinct {
						t.Errorf("%s/%v/seed=%d/workers=%d: found/assigned/distinct = %d/%d/%d, golden %d/%d/%d",
							label, gc.rule, gc.seed, workers,
							res.TrianglesFound, res.TrianglesAssigned, res.DistinctTriangles,
							gc.found, gc.assigned, gc.distinct)
					}
					if res.SpaceWords != gc.spaceWords {
						t.Errorf("%s/%v/seed=%d/workers=%d: space = %d words, golden %d",
							label, gc.rule, gc.seed, workers, res.SpaceWords, gc.spaceWords)
					}
					if want := gc.passes + b.extraPasses; res.Passes != want {
						t.Errorf("%s/%v/seed=%d/workers=%d: passes = %d, want %d",
							label, gc.rule, gc.seed, workers, res.Passes, want)
					}
				}
			}
		}
	}
}
