// Command experiments regenerates the paper-reproduction tables (E1–E13, see
// DESIGN.md §7) and prints them as markdown, optionally writing them to a
// file for inclusion in EXPERIMENTS.md.
//
// Usage:
//
//	experiments                      # all experiments at the default scale
//	experiments -scale full          # laptop-scale run recorded in EXPERIMENTS.md
//	experiments -only E3,E4          # a subset
//	experiments -out results.md      # also write to a file
//
// With -bench-out the command instead runs the benchmark-trajectory sweep
// over the graphfetch corpus cache and writes a schema-v2 BENCH_N.json:
//
//	graphfetch -offline -cache corpus
//	experiments -corpus corpus -bench-out BENCH_8.json -bench-entry 8 -bench-pr 18
//
// -bench-unfused disables scan fusion (every trial scans the file itself) —
// the deliberate scan-economy regression CI injects to prove the benchdiff
// gate catches it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"degentri/internal/benchfmt"
	"degentri/internal/exp"
)

func main() {
	var (
		scaleFlag    = flag.String("scale", "default", "workload scale: smoke, default, full")
		only         = flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
		out          = flag.String("out", "", "optional path to also write the markdown report to")
		benchOut     = flag.String("bench-out", "", "run the corpus bench sweep and write BENCH_N.json here (skips the E-experiments)")
		corpusDir    = flag.String("corpus", "corpus", "graphfetch cache directory for the bench sweep")
		benchEntry   = flag.Int("bench-entry", 8, "trajectory entry number N of the BENCH_N.json being produced")
		benchPR      = flag.Int("bench-pr", 18, "pull request number recorded in the trajectory entry")
		benchDate    = flag.String("bench-date", "", "entry date YYYY-MM-DD (default: today)")
		benchTrials  = flag.Int("bench-trials", 5, "estimator trials per (graph, ε) in the bench sweep")
		benchUnfused = flag.Bool("bench-unfused", false, "disable scan fusion in the bench sweep (deliberate regression injection for gate testing)")
	)
	flag.Parse()

	if *benchOut != "" {
		os.Exit(runBenchSweep(*benchOut, *corpusDir, *benchEntry, *benchPR, *benchDate, *benchTrials, *benchUnfused))
	}

	var scale exp.Scale
	switch *scaleFlag {
	case "smoke":
		scale = exp.ScaleSmoke
	case "default":
		scale = exp.ScaleDefault
	case "full":
		scale = exp.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.TrimSpace(id)] = true
		}
	}

	var report strings.Builder
	fmt.Fprintf(&report, "# Experiment report (scale=%s, generated %s)\n\n", scale, time.Now().Format(time.RFC3339))

	for _, e := range exp.Registry() {
		if len(wanted) > 0 && !wanted[e.ID] {
			continue
		}
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running %s: %s ...\n", e.ID, e.Title)
		tables, err := e.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Fprintf(&report, "## %s — %s\n\nPaper artifact: %s. Wall time: %s.\n\n",
			e.ID, e.Title, e.Paper, time.Since(start).Round(time.Millisecond))
		for _, t := range tables {
			report.WriteString(t.Markdown())
			report.WriteString("\n")
		}
	}

	fmt.Print(report.String())
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
}

// runBenchSweep runs the corpus benchmark sweep and writes the trajectory
// entry. Returns the process exit code.
func runBenchSweep(outPath, corpusDir string, entry, pr int, date string, trials int, unfused bool) int {
	if date == "" {
		date = time.Now().UTC().Format("2006-01-02")
	}
	start := time.Now()
	file, table, err := exp.BenchSweep(exp.BenchOptions{
		CorpusDir: corpusDir,
		Entry:     entry,
		PR:        pr,
		Date:      date,
		Trials:    trials,
		Unfused:   unfused,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: bench sweep:", err)
		return 1
	}
	if err := benchfmt.Write(outPath, file); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	fmt.Print(table.Markdown())
	fmt.Fprintf(os.Stderr, "wrote %s (%d workloads, %s)\n",
		outPath, len(file.Workloads), time.Since(start).Round(time.Millisecond))
	return 0
}
