package clique_test

// Fusion equivalence for the k-clique estimator: EstimateOn through a scan
// scheduler client must reproduce the standalone Estimate bit for bit at
// 1/2/4/8 workers over the memory, text, and .bex backends (the standalone
// results are themselves pinned against pre-refactor goldens by
// golden_test.go), and two fused runs must share their scans.

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"degentri/internal/clique"
	"degentri/internal/gen"
	"degentri/internal/passes"
	"degentri/internal/sched"
	"degentri/internal/stream"
)

func TestFusedCliqueMatchesDirect(t *testing.T) {
	g := gen.HolmeKim(4000, 5, 0.7, 77)
	streamSeed := uint64(19)
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	bex := filepath.Join(dir, "g"+stream.BexExt)
	f, err := os.Create(txt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.WriteEdgeList(f, stream.FromGraphShuffled(g, streamSeed)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := stream.WriteBex2File(bex, stream.FromGraphShuffled(g, streamSeed), 64); err != nil {
		t.Fatal(err)
	}

	open := map[string]func() (stream.Stream, func(), error){
		"memory": func() (stream.Stream, func(), error) {
			return stream.FromGraphShuffled(g, streamSeed), func() {}, nil
		},
		"text": func() (stream.Stream, func(), error) {
			src, err := stream.OpenAuto(txt)
			if err != nil {
				return nil, nil, err
			}
			return src, func() { src.Close() }, nil
		},
		"bex": func() (stream.Stream, func(), error) {
			src, err := stream.OpenAuto(bex)
			if err != nil {
				return nil, nil, err
			}
			return src, func() { src.Close() }, nil
		},
	}

	cfg := clique.DefaultConfig(4, 0.2, g.Degeneracy(), g.CliqueCount(4))
	cfg.Seed = 23

	for name, openSrc := range open {
		for _, workers := range []int{1, 2, 4, 8} {
			runCfg := cfg
			runCfg.Workers = workers

			src, closeSrc, err := openSrc()
			if err != nil {
				t.Fatal(err)
			}
			want, err := clique.Estimate(src, runCfg)
			closeSrc()
			if err != nil {
				t.Fatalf("%s/workers=%d: unfused: %v", name, workers, err)
			}

			src, closeSrc, err = openSrc()
			if err != nil {
				t.Fatal(err)
			}
			m, known := src.Len()
			prelude := 0
			if !known {
				m, err = stream.CountEdges(src)
				if err != nil {
					t.Fatal(err)
				}
				prelude = 1
			}
			sch := sched.New(src, m, workers)
			c := sch.NewClient()
			got, err := clique.EstimateOn(c, runCfg)
			c.Done()
			closeSrc()
			if err != nil {
				t.Fatalf("%s/workers=%d: fused: %v", name, workers, err)
			}
			got.Passes += prelude
			got.Scans = want.Scans
			if got != want {
				t.Errorf("%s/workers=%d: fused clique result diverges:\n  fused   %+v\n  unfused %+v",
					name, workers, got, want)
			}
		}
	}
}

func TestFusedCliqueRunsShareScans(t *testing.T) {
	g := gen.HolmeKim(4000, 5, 0.7, 77)
	src := stream.FromGraphShuffled(g, 19)
	m, _ := src.Len()
	cfg := clique.DefaultConfig(4, 0.2, g.Degeneracy(), g.CliqueCount(4))

	solo := make([]clique.Result, 2)
	for i := range solo {
		runCfg := cfg
		runCfg.Seed = uint64(100 + i)
		res, err := clique.Estimate(stream.FromGraphShuffled(g, 19), runCfg)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = res
	}

	sch := sched.New(src, m, 4)
	clients := []*sched.Client{sch.NewClient(), sch.NewClient()}
	fused := make([]clique.Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer clients[i].Done()
			runCfg := cfg
			runCfg.Seed = uint64(100 + i)
			runCfg.Workers = 4
			fused[i], errs[i] = clique.EstimateOn(clients[i], runCfg)
		}(i)
	}
	wg.Wait()
	maxPasses := 0
	for i := range fused {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		got := fused[i]
		got.Scans = solo[i].Scans
		if got != solo[i] {
			t.Errorf("seed=%d: fused diverges from solo:\n  %+v\n  %+v", 100+i, got, solo[i])
		}
		if fused[i].Passes > maxPasses {
			maxPasses = fused[i].Passes
		}
	}
	if sch.Scans() != maxPasses {
		t.Errorf("two fused clique runs cost %d scans, want %d", sch.Scans(), maxPasses)
	}
	// Both runs charge their clients' meters, which mirror into the group's:
	// the concurrent peak must exceed either run's own peak.
	if peak := sch.Meter().Peak(); peak <= solo[0].SpaceWords || peak <= solo[1].SpaceWords {
		t.Errorf("group peak %d does not exceed solo peaks %d/%d",
			peak, solo[0].SpaceWords, solo[1].SpaceWords)
	}
}

// TestEstimateOnChargesItsExecutorsMeter pins the one-meter contract for the
// clique estimator: a run on a fresh executor reports the peak of the
// executor's meter as its SpaceWords.
func TestEstimateOnChargesItsExecutorsMeter(t *testing.T) {
	g := gen.HolmeKim(4000, 5, 0.7, 77)
	src := stream.FromGraphShuffled(g, 19)
	m, _ := src.Len()
	x := passes.NewDirect(src, m, 2)
	res, err := clique.EstimateOn(x, clique.DefaultConfig(4, 0.2, g.Degeneracy(), g.CliqueCount(4)))
	if err != nil {
		t.Fatal(err)
	}
	if peak := x.Meter().Peak(); res.SpaceWords == 0 || peak != res.SpaceWords {
		t.Errorf("executor meter peaked at %d, SpaceWords %d", peak, res.SpaceWords)
	}
}
