package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cvd"
	"repro/internal/vgraph"
)

// The explore workload: the paper's read path. The largest versions of the
// three workloads (SCI_20K) under LyreSplit partitioning, read by two
// in-process closed-loop clients, with rare commits that hold the CVD's
// exclusive lock. No WAL, no server.
var exploreMix = [numKinds]int{opCheckout: 45, opSelect: 53, opCommit: 2}

const (
	explorePreset = "SCI_20K"
	exploreSetups = 2
	// storageFactor is the LyreSplit storage threshold γ = factor·|R|.
	storageFactor = 2.0
)

type exploreState struct {
	e     *core.Engine
	c     *cvd.CVD
	base  []vgraph.VersionID
	opt   core.OptimizeReport
	optMS float64
}

func setupExplore(preset string) (*exploreState, error) {
	w, err := generate(preset)
	if err != nil {
		return nil, err
	}
	e := core.Open("perfbench")
	c, base, err := seedEngine(e, w)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	opt, err := e.Optimize(cvdName, storageFactor)
	if err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	return &exploreState{e: e, c: c, base: base, opt: opt, optMS: ms(time.Since(start))}, nil
}

func runExplore(cfg config) (*report, error) {
	preset, setups := pick(cfg.preset, explorePreset), pickInt(cfg.setups, exploreSetups)
	st, setupS, err := timeSetups(setups, func(int) (*exploreState, error) {
		return setupExplore(preset)
	}, func(*exploreState) {})
	if err != nil {
		return nil, err
	}
	heap := heapPerRecord(st.c.NumRecords())
	width := len(st.c.Schema().Columns)
	cls := make([]*engineClient, clients)
	for i := range cls {
		cls[i] = &engineClient{id: i, e: st.e, c: st.c, st: newStream(cfg.seed, "explore", i, exploreMix, st.base, width)}
	}
	r := newReport()
	if !cfg.trace {
		p := runClosed(cls, cfg.seconds, false)
		r.addOps(p.stats)
		if err := r.endToEndMetrics(p, setupS, heap); err != nil {
			return nil, err
		}
	} else {
		a := runClosed(cls, cfg.seconds/2, false)
		b := runClosed(cls, cfg.seconds/2, true)
		r.addOps(a.stats)
		r.addOps(b.stats)
		r.inprocLayers(a, b)
		r.spans = b.spans
		r.metrics["partition.optimize_ms"] = st.optMS
		r.metrics["partition.count"] = float64(st.opt.Partitions)
		r.metrics["partition.est_avg_checkout"] = st.opt.EstimatedAvgCost
	}
	var samples []selectSample
	for _, cl := range cls {
		samples = append(samples, cl.samples...)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no select answer was sampled for the output check")
	}
	bad, err := checkSelects(st.e, st.c, samples)
	if err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	r.badChecks += int64(bad)
	return r, nil
}

// inprocLayers fills the per-layer metrics of an in-process workload from
// an untraced phase a and the traced phase b that followed it.
func (r *report) inprocLayers(a, b phase) {
	m := r.metrics
	agg := aggregate(b.spans)
	if w := agg["cvd.rlock_wait"]; w != nil {
		m["cvd.rlock_wait_p50_ms"] = median(w.selfMS)
		m["cvd.rlock_wait_p99_ms"] = tail(w.selfMS, 0.99)
	}
	for _, name := range []string{"cvd.checkout", "cvd.discard", "cvd.pred", "cvd.scan", "cvd.merge_checkout", "commit.checkout", "commit.stage", "commit.apply"} {
		m[name+"_ms"] = selfP50(agg, name)
	}
	m["cvd.checkout_rows"] = rowsP50(agg, "cvd.checkout")
	m["cvd.checkout_ns_per_row"] = nsPerRow(agg, "cvd.checkout")
	m["cvd.scan_rows"] = rowsP50(agg, "cvd.scan")
	m["commit.rows_staged"] = rowsP50(agg, "commit.apply")
	m["commit.apply_ns_per_row"] = nsPerRow(agg, "commit.apply")
	r.opLayers(a, b)
	opsA := float64(a.stats.completed()) / a.elapsed.Seconds()
	opsB := float64(b.stats.completed()) / b.elapsed.Seconds()
	m["trace_overhead"] = 1 - ratio(opsB, opsA)
}

func pick(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func pickInt(n, def int) int {
	if n == 0 {
		return def
	}
	return n
}
