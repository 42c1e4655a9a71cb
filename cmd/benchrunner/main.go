// Command benchrunner regenerates every table and figure of the paper's
// evaluation at laptop scale, plus the concurrent checkout scaling
// experiment. Each experiment id corresponds to a table or figure; see
// BENCH.md at the repository root for the per-experiment index and how to
// read the rendered tables.
//
// The -experiment presets are a fixed registry; scenarios declared as data
// (specs/*.yaml) run through cmd/workloadrunner instead.
//
// Usage:
//
//	go run ./cmd/benchrunner -experiment all
//	go run ./cmd/benchrunner -experiment fig5.8 -dataset SCI_10K -scale 1
//	go run ./cmd/benchrunner -experiment concurrent -workers 4
//	go run ./cmd/benchrunner -experiment recset -out BENCH_recset.json
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/benchmark"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment id (see -experiment help, or BENCH.md): "+strings.Join(experimentIDs(), ", ")+", all")
	dataset := flag.String("dataset", "SCI_10K", "dataset preset for single-dataset experiments")
	scale := flag.Int("scale", 1, "scale multiplier applied to dataset presets")
	workers := flag.Int("workers", 0, "engine worker-pool size for parallel operations (0 = single-threaded operations)")
	latency := flag.Duration("latency", 0, "simulated client-server round trip for the concurrent experiment (0 = default 5ms, negative = none)")
	out := flag.String("out", "", "output path for a JSON report; honored for explicitly selected report-producing experiments (never under -experiment all, where two reports would overwrite each other)")
	flag.Parse()

	if err := run(*experiment, *dataset, *scale, *workers, *latency, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

// expParams carries the CLI knobs into the registry entries.
type expParams struct {
	dataset string
	scale   int
	workers int
	latency time.Duration
}

// experiment is one registry entry: a primary id, the figure aliases that
// select the same run, and the runner. A non-nil report document is written
// to -out when this experiment was selected explicitly.
type experiment struct {
	id      string
	aliases []string
	run     func(p expParams) (table string, report []byte, err error)
}

// tableOnly adapts experiments without a JSON report.
func tableOnly(fn func(p expParams) (string, error)) func(expParams) (string, []byte, error) {
	return func(p expParams) (string, []byte, error) {
		table, err := fn(p)
		return table, nil, err
	}
}

// withReport adapts experiments returning a benchmark report with a JSON()
// method alongside the rendered table.
func withReport[R interface{ JSON() ([]byte, error) }](fn func(p expParams) (R, string, error)) func(expParams) (string, []byte, error) {
	return func(p expParams) (string, []byte, error) {
		report, table, err := fn(p)
		if err != nil {
			return "", nil, err
		}
		doc, err := report.JSON()
		if err != nil {
			return "", nil, err
		}
		return table, doc, nil
	}
}

// experiments is the dispatch registry, in `-experiment all` execution order.
var experiments = []experiment{
	{id: "fig4.1", run: tableOnly(func(p expParams) (string, error) {
		_, table, err := benchmark.RunFig41(nil, p.scale)
		return table.String(), err
	})},
	{id: "tab5.2", run: tableOnly(func(p expParams) (string, error) {
		table, err := benchmark.RunTable52(nil, p.scale)
		return table.String(), err
	})},
	{id: "fig5.7", run: tableOnly(func(p expParams) (string, error) {
		table, err := benchmark.RunFig57(nil, nil)
		return table.String(), err
	})},
	{id: "fig5.8", aliases: []string{"fig5.20"}, run: tableOnly(func(p expParams) (string, error) {
		_, table, err := benchmark.RunFig58(p.dataset, p.scale)
		return table.String(), err
	})},
	{id: "fig5.10", aliases: []string{"fig5.12"}, run: tableOnly(func(p expParams) (string, error) {
		table, err := benchmark.RunFig510(nil, p.scale)
		return table.String(), err
	})},
	{id: "fig5.14", aliases: []string{"fig5.15"}, run: tableOnly(func(p expParams) (string, error) {
		table, err := benchmark.RunFig514(nil, p.scale, 20)
		return table.String(), err
	})},
	{id: "fig5.17", aliases: []string{"fig5.19"}, run: tableOnly(func(p expParams) (string, error) {
		table, err := benchmark.RunFig517(p.dataset, p.scale, 1.5, 2)
		return table.String(), err
	})},
	{id: "concurrent", run: tableOnly(func(p expParams) (string, error) {
		_, table, err := benchmark.RunConcurrent(benchmark.ConcurrentConfig{
			Dataset:    p.dataset,
			Scale:      p.scale,
			SimLatency: p.latency,
			Workers:    p.workers,
		})
		return table.String(), err
	})},
	{id: "recset", run: withReport(func(p expParams) (benchmark.RecsetReport, string, error) {
		report, table, err := benchmark.RunRecset(p.dataset, p.scale)
		return report, table.String(), err
	})},
	{id: "columnar", run: withReport(func(p expParams) (benchmark.ColumnarReport, string, error) {
		report, table, err := benchmark.RunColumnar(p.dataset, p.scale)
		return report, table.String(), err
	})},
	{id: "durable", run: withReport(func(p expParams) (benchmark.DurableReport, string, error) {
		report, table, err := benchmark.RunDurable(p.dataset, p.scale)
		if err != nil {
			return report, "", err
		}
		// Attach the incremental-checkpoint experiment so BENCH_durable.json
		// carries the full durability picture. SCI_50K regardless of
		// -dataset: the reuse margins only show on a large seeded CVD.
		incr, itable, err := benchmark.RunDurableIncremental("SCI_50K", 1)
		if err != nil {
			return report, "", err
		}
		report.Incremental = &incr
		return report, table.String() + "\n" + itable.String(), nil
	})},
	{id: "durable-incremental", run: withReport(func(p expParams) (benchmark.IncrementalReport, string, error) {
		report, table, err := benchmark.RunDurableIncremental("SCI_50K", 1)
		return report, table.String(), err
	})},
	{id: "groupcommit", run: withReport(func(p expParams) (benchmark.GroupCommitReport, string, error) {
		report, table, err := benchmark.RunGroupCommit(0)
		return report, table.String(), err
	})},
	{id: "ch7", run: tableOnly(func(p expParams) (string, error) {
		table, err := benchmark.RunCh7(40, 7)
		return table.String(), err
	})},
	{id: "ch8", run: tableOnly(func(p expParams) (string, error) {
		table, err := benchmark.RunCh8(30, 7)
		return table.String(), err
	})},
}

// experimentIDs lists primary registry ids, sorted for the flag help.
func experimentIDs() []string {
	ids := make([]string, 0, len(experiments))
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	sort.Strings(ids)
	return ids
}

// matches reports whether the selector picks this entry.
func (e *experiment) matches(selector string) bool {
	if strings.EqualFold(selector, e.id) {
		return true
	}
	for _, a := range e.aliases {
		if strings.EqualFold(selector, a) {
			return true
		}
	}
	return false
}

func run(selector, dataset string, scale, workers int, latency time.Duration, out string) error {
	p := expParams{dataset: dataset, scale: scale, workers: workers, latency: latency}
	all := selector == "all"
	ran := false
	for i := range experiments {
		e := &experiments[i]
		if !all && !e.matches(selector) {
			continue
		}
		ran = true
		table, report, err := e.run(p)
		if err != nil {
			return err
		}
		fmt.Println(table)
		if report == nil || out == "" {
			continue
		}
		// -out is honored only for an explicitly selected experiment: under
		// -experiment all, recset and columnar would otherwise write the same
		// file one after the other, silently destroying the first report.
		if all {
			fmt.Printf("skipping -out for %s (only written with -experiment %s)\n", e.id, e.id)
			continue
		}
		if err := os.WriteFile(out, append(report, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (known: %s)", selector, strings.Join(experimentIDs(), ", "))
	}
	return nil
}
