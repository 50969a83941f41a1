package core_test

// Standalone accounting pins: the entry points that open their own stream
// (core.EstimateTriangles, core.AutoEstimate, clique.Estimate and
// degen.Estimate) must report these estimate bits, logical passes, physical
// scans, retries and words on an in-memory stream, a text file (whose length
// is learned by one opening scan) and a .bex file. Two more sources wrap the
// text in a faultio schedule that fails its opening count once (healed by
// one retry) or on every attempt (past the retry budget). A failed count is
// reported the way a healed one is: one pass and one scan, plus the count's
// retries where the result has a Retries field.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"degentri/internal/clique"
	"degentri/internal/core"
	"degentri/internal/degen"
	"degentri/internal/faultio"
	"degentri/internal/gen"
	"degentri/internal/stream"
)

// accountingPin is one entry's outcome on one source. Fields an entry's
// result does not have stay zero.
type accountingPin struct {
	source, entry string
	estimate      uint64 // math.Float64bits of the estimate (κ̂ for degen)
	passes        int
	scans         int
	retries       int
	spaceWords    int64
	failed        bool // the run returned a transient I/O error
}

// Recorded before standalone runs moved onto the scan scheduler, except the
// text-fail rows, recorded when the three entries began reporting a failed
// opening count alike.
var accountingPins = []accountingPin{
	{"memory", "core", 0x40a6a519c9e81929, 6, 6, 0, 16143, false},
	{"memory", "auto", 0x40a18a644467123f, 30, 22, 0, 114624, false},
	{"memory", "clique", 0x407605b15680251c, 4, 4, 0, 59073, false},
	{"memory", "degen", 0x4026000000000000, 5, 0, 0, 1169, false},
	{"text", "core", 0x40a6a519c9e81929, 7, 7, 0, 16143, false},
	{"text", "auto", 0x40a18a644467123f, 31, 23, 0, 114624, false},
	{"text", "clique", 0x407605b15680251c, 5, 5, 0, 59073, false},
	{"text", "degen", 0x4026000000000000, 5, 0, 0, 1169, false},
	{"bex", "core", 0x40a6a519c9e81929, 6, 6, 0, 16143, false},
	{"bex", "auto", 0x40a18a644467123f, 30, 22, 0, 114624, false},
	{"bex", "clique", 0x407605b15680251c, 4, 4, 0, 59073, false},
	{"bex", "degen", 0x4026000000000000, 5, 0, 0, 1169, false},
	{"text-heal", "core", 0x40a6a519c9e81929, 7, 7, 1, 16143, false},
	{"text-heal", "auto", 0x40a18a644467123f, 31, 23, 1, 114624, false},
	{"text-heal", "clique", 0x407605b15680251c, 5, 5, 0, 59073, false},
	{"text-fail", "core", 0x0, 1, 1, 2, 0, true},
	{"text-fail", "auto", 0x0, 1, 1, 2, 0, true},
	{"text-fail", "clique", 0x0, 1, 1, 0, 0, true},
}

func TestStandaloneAccounting(t *testing.T) {
	g := gen.HolmeKim(1000, 4, 0.7, 101)
	kappa, tri := g.Degeneracy(), g.TriangleCount()
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	bex := filepath.Join(dir, "g"+stream.BexExt)
	f, err := os.Create(txt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.WriteEdgeList(f, stream.FromGraphShuffled(g, 14)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := stream.WriteBex2File(bex, stream.FromGraphShuffled(g, 14), 64); err != nil {
		t.Fatal(err)
	}
	m := g.NumEdges()

	// Every attempt's fault lands in the first 64 edges, and the retries
	// back off for a millisecond at most.
	retry := stream.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	faulty := func(plan faultio.Plan) func() (stream.Stream, error) {
		return func() (stream.Stream, error) {
			fs, err := stream.OpenAuto(txt)
			if err != nil {
				return nil, err
			}
			return faultio.New(fs, plan), nil
		}
	}
	sources := []struct {
		name  string
		open  func() (stream.Stream, error)
		degen bool
	}{
		{"memory", func() (stream.Stream, error) { return stream.FromGraphShuffled(g, 14), nil }, true},
		{"text", func() (stream.Stream, error) { return stream.OpenAuto(txt) }, true},
		{"bex", func() (stream.Stream, error) { return stream.OpenAuto(bex) }, true},
		{"text-heal", faulty(faultio.Plan{Seed: 5, Every: 1, MaxFaults: 1, Horizon: 64}), false},
		{"text-fail", faulty(faultio.Plan{Seed: 5, Every: 1, Horizon: 64}), false},
	}
	coreCfg := func() core.Config {
		cfg := core.DefaultConfig(0.1, kappa, tri)
		cfg.CR, cfg.CL, cfg.CS = 16, 16, 8
		cfg.Seed = 3
		cfg.Retry = retry
		return cfg
	}
	entries := []struct {
		name string
		run  func(src stream.Stream) (accountingPin, error)
	}{
		{"core", func(src stream.Stream) (accountingPin, error) {
			res, err := core.EstimateTriangles(src, coreCfg())
			return accountingPin{estimate: math.Float64bits(res.Estimate), passes: res.Passes,
				scans: res.Scans, retries: res.Retries, spaceWords: res.SpaceWords}, err
		}},
		{"auto", func(src stream.Stream) (accountingPin, error) {
			res, err := core.AutoEstimate(src, coreCfg())
			return accountingPin{estimate: math.Float64bits(res.Estimate), passes: res.Passes,
				scans: res.Scans, retries: res.Retries, spaceWords: res.SpaceWords}, err
		}},
		{"clique", func(src stream.Stream) (accountingPin, error) {
			cfg := clique.DefaultConfig(4, 0.1, kappa, max(g.CliqueCount(4), 1))
			cfg.Seed = 3
			res, err := clique.EstimateCtx(context.Background(), src, cfg, retry)
			return accountingPin{estimate: math.Float64bits(res.Estimate), passes: res.Passes,
				scans: res.Scans, spaceWords: res.SpaceWords}, err
		}},
		{"degen", func(src stream.Stream) (accountingPin, error) {
			res, err := degen.Estimate(src, m, degen.Options{})
			return accountingPin{estimate: math.Float64bits(float64(res.Kappa)), passes: res.Passes,
				spaceWords: res.SpaceWords}, err
		}},
	}

	want := map[[2]string]accountingPin{}
	for _, p := range accountingPins {
		want[[2]string{p.source, p.entry}] = p
	}
	for _, s := range sources {
		for _, e := range entries {
			if e.name == "degen" && !s.degen {
				continue
			}
			src, err := s.open()
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.run(src)
			if c, ok := src.(interface{ Close() error }); ok {
				c.Close()
			}
			got.source, got.entry = s.name, e.name
			if err != nil {
				if !stream.IsTransient(err) {
					t.Errorf("%s/%s: %v", s.name, e.name, err)
					continue
				}
				got.failed = true
			}
			if w, ok := want[[2]string{s.name, e.name}]; !ok || got != w {
				t.Errorf("%s/%s: got\n\t%s\nwant %+v", s.name, e.name, pinLiteral(got), w)
			}
		}
	}
}

// pinLiteral formats a pin as a Go literal of the table above.
func pinLiteral(p accountingPin) string {
	return fmt.Sprintf("{%q, %q, %#x, %d, %d, %d, %d, %t},",
		p.source, p.entry, p.estimate, p.passes, p.scans, p.retries, p.spaceWords, p.failed)
}
