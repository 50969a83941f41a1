package clique

// Determinism goldens for the k-clique estimator, mirroring the core
// estimator's golden suite: for a fixed workload, stream order, and seed, the
// full Result is pinned to exact values, which must be bit-identical at every
// worker count (1/2/4/8) and over every stream backend (in-memory, text file,
// binary .bex). The estimates, found counts and space were last re-pinned when
// the neighbor banks (sampling.ResK) moved to a buffered uniform k-subset
// from which the k−2 samples are drawn once, after the pass; edges, sampled
// and instances come from the passes before it and did not move.

import (
	"os"
	"path/filepath"
	"testing"

	"degentri/internal/gen"
	"degentri/internal/graph"
	"degentri/internal/stream"
)

type cliqueGolden struct {
	workload   string
	k          int
	kappa      int
	guess      int64
	seed       uint64
	streamSeed uint64
	estimate   float64
	edges      int
	sampled    int
	instances  int
	found      int
	spaceWords int64
}

// cliqueGoldenGraphs builds the pinned workloads once.
func cliqueGoldenGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"apollonian-1500":  gen.Apollonian(1500),
		"complete-40":      gen.Complete(40),
		"holmekim-4000-k6": gen.HolmeKim(4000, 6, 0.8, 5),
		"complete-25":      gen.Complete(25),
	}
}

var cliqueGoldens = []cliqueGolden{
	{"apollonian-1500", 4, 3, 1500, 1, 11, 1213.0638938860002, 4503, 217, 374, 52, 6204},
	{"apollonian-1500", 4, 3, 1500, 42, 11, 1200.8913572732806, 4503, 217, 477, 41, 7875},
	{"complete-40", 4, 39, 91390, 7, 13, 89358.75, 780, 104, 104, 94, 1976},
	{"holmekim-4000-k6", 4, 6, 2449, 1, 14, 3805.2930613254866, 23979, 2820, 5521, 52, 98946},
	{"complete-25", 5, 24, 53130, 9, 15, 54521.856, 300, 300, 625, 493, 9050},
}

func (gc cliqueGolden) config() Config {
	cfg := DefaultConfig(gc.k, 0.2, gc.kappa, gc.guess)
	cfg.CR, cfg.CL = 8, 8
	cfg.Seed = gc.seed
	return cfg
}

// check compares a Result against the golden, with the pass count adjusted
// for backends that need a counting pass (extraPasses).
func (gc cliqueGolden) check(t *testing.T, label string, res Result, extraPasses int) {
	t.Helper()
	if res.Estimate != gc.estimate {
		t.Errorf("%s: estimate = %.17g, golden %.17g", label, res.Estimate, gc.estimate)
	}
	if res.EdgesInStream != gc.edges || res.SampledEdges != gc.sampled ||
		res.Instances != gc.instances || res.CliquesFound != gc.found {
		t.Errorf("%s: edges/sampled/instances/found = %d/%d/%d/%d, golden %d/%d/%d/%d",
			label, res.EdgesInStream, res.SampledEdges, res.Instances, res.CliquesFound,
			gc.edges, gc.sampled, gc.instances, gc.found)
	}
	if res.SpaceWords != gc.spaceWords {
		t.Errorf("%s: space = %d words, golden %d", label, res.SpaceWords, gc.spaceWords)
	}
	if want := 4 + extraPasses; res.Passes != want {
		t.Errorf("%s: passes = %d, want %d", label, res.Passes, want)
	}
}

func TestEstimateGolden(t *testing.T) {
	graphs := cliqueGoldenGraphs()
	for _, gc := range cliqueGoldens {
		g := graphs[gc.workload]
		for _, workers := range []int{1, 2, 4, 8} {
			cfg := gc.config()
			cfg.Workers = workers
			res, err := Estimate(stream.FromGraphShuffled(g, gc.streamSeed), cfg)
			if err != nil {
				t.Fatalf("%s/seed=%d/workers=%d: %v", gc.workload, gc.seed, workers, err)
			}
			gc.check(t, gc.workload, res, 0)
		}
	}
}

// TestEstimateGoldenFileBackends re-runs the golden pins over the disk-backed
// stream sources, with the files written in the exact shuffled order the
// in-memory goldens use: the text stream spends one extra counting pass
// (length unknown up front), the block-indexed .bex v2 stream none, and
// everything else must match the goldens bit for bit.
func TestEstimateGoldenFileBackends(t *testing.T) {
	graphs := cliqueGoldenGraphs()
	dir := t.TempDir()

	type fileBackend struct {
		name  string
		path  string
		extra int
	}
	written := map[string]bool{}
	writeBackends := func(gc cliqueGolden) []fileBackend {
		base := filepath.Join(dir, gc.workload)
		txt, bex2 := base+".txt", base+stream.BexExt
		fbs := []fileBackend{
			{"text", txt, 1},
			{"bex2", bex2, 0},
		}
		if written[gc.workload] {
			return fbs
		}
		g := graphs[gc.workload]
		f, err := os.Create(txt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stream.WriteEdgeList(f, stream.FromGraphShuffled(g, gc.streamSeed)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		// Tiny blocks so the goldens exercise multi-block reads, not just a
		// single-block fast path.
		if _, err := stream.WriteBex2File(bex2, stream.FromGraphShuffled(g, gc.streamSeed), 16); err != nil {
			t.Fatal(err)
		}
		written[gc.workload] = true
		return fbs
	}

	for _, gc := range cliqueGoldens {
		// All golden cases of one workload share a streamSeed, so the files
		// written for the first case serve the rest.
		for _, workers := range []int{1, 2, 4, 8} {
			for _, backend := range writeBackends(gc) {
				src, err := stream.OpenAuto(backend.path)
				if err != nil {
					t.Fatal(err)
				}
				cfg := gc.config()
				cfg.Workers = workers
				res, err := Estimate(src, cfg)
				src.Close()
				if err != nil {
					t.Fatalf("%s/seed=%d/workers=%d: %v", backend.name, gc.seed, workers, err)
				}
				gc.check(t, gc.workload+"/"+backend.name, res, backend.extra)
			}
		}
	}
}
