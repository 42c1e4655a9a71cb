// Command perfbench is the repository benchmark. It runs one named workload
// against the OrpheusDB engine for a fixed time, checks the program's
// outputs, and prints its metrics as one JSON object on the last line of
// standard output:
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// half the time untraced and half traced, and reports the per-layer metrics
// (span self times and counters) plus the tracing overhead. README.md in
// this directory describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// clients is how many client goroutines or connections a workload drives:
// on a 2-vCPU machine more would measure the scheduler.
const clients = 2

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dataDir  string // parent of the durable data directories

	// Sizes; zero values select the workload's defaults. Tests shrink them.
	preset    string
	setups    int
	ckptEvery int // ingest: commits per background checkpoint
}

// decl declares one metric the benchmark reports.
type decl struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every workload.
var endToEnd = []decl{
	{"ops_per_s", "1/s"},
	{"checkout_p50_ms", "ms"},
	{"select_p50_ms", "ms"},
	{"commit_p50_ms", "ms"},
	{"setup_s", "s"},
	{"ok_ratio", "share"},
	{"heap_bytes_per_record", "bytes"},
}

// perLayer are the metrics of a traced run. A workload that bypasses a
// layer reports 0 for it.
var perLayer = []decl{
	{"trace_overhead", "share"},
	{"read_p90_ms", "ms"},
	{"merge_p50_ms", "ms"},
	{"checkpoint_p50_ms", "ms"},
	{"recovery_s", "s"},
	{"disk_bytes_per_record", "bytes"},
	{"loadgen.lag_p90_ms", "ms"},
	{"server.checkout_ms", "ms"},
	{"server.select_ms", "ms"},
	{"server.commit_ms", "ms"},
	{"server.session_ms", "ms"},
	{"server.wire_ms", "ms"},
	{"server.select_resp_bytes", "bytes"},
	{"server.shed", "count"},
	{"server.retries", "count"},
	{"cvd.rlock_wait_p50_ms", "ms"},
	{"cvd.rlock_wait_p99_ms", "ms"},
	{"cvd.checkout_ms", "ms"},
	{"cvd.checkout_rows", "count"},
	{"cvd.checkout_ns_per_row", "ns"},
	{"cvd.discard_ms", "ms"},
	{"cvd.pred_ms", "ms"},
	{"cvd.scan_ms", "ms"},
	{"cvd.scan_rows", "count"},
	{"cvd.merge_checkout_ms", "ms"},
	{"commit.checkout_ms", "ms"},
	{"commit.stage_ms", "ms"},
	{"commit.apply_ms", "ms"},
	{"commit.rows_staged", "count"},
	{"commit.apply_ns_per_row", "ns"},
	{"partition.optimize_ms", "ms"},
	{"partition.count", "count"},
	{"partition.est_avg_checkout", "count"},
	{"wal.bytes_per_commit", "bytes"},
	{"wal.syncs_per_commit", "count"},
	{"wal.sync_p50_ms", "ms"},
	{"wal.sync_busy_share", "share"},
	{"pack.bytes_written", "bytes"},
	{"manifest.bytes_written", "bytes"},
	{"vfs.renames", "count"},
	{"vfs.syncdirs", "count"},
	{"ckpt.fence_ms", "ms"},
	{"ckpt.complete_ms", "ms"},
	{"ckpt.bytes_written", "bytes"},
	{"ckpt.chunks_written", "count"},
	{"ckpt.chunk_reuse", "share"},
	{"recovery.wal_tail_bytes", "bytes"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.gc_cpu_share", "share"},
	{"go.gc_cycles", "count"},
	{"go.heap_live_bytes", "bytes"},
}

// report is what a workload run measured.
type report struct {
	attempted int64 // operations attempted
	failed    int64 // operations that failed (errors and 503 sheds)
	badChecks int64 // output checks that failed
	metrics   map[string]float64
	spans     []span // the traced phase's spans
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result renders a report as the benchmark's output line. Failed output
// checks count as failed operations.
func (r *report) result(trace bool) (resultOut, error) {
	out := resultOut{
		Correct:   r.badChecks == 0,
		Attempted: r.attempted,
		Failed:    r.failed + r.badChecks,
		Metrics:   make(map[string]metricOut),
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no operation was attempted")
	}
	r.metrics["ok_ratio"] = 1 - float64(out.Failed)/float64(out.Attempted)
	decls := endToEnd
	if trace {
		decls = perLayer
	}
	for _, d := range decls {
		v, ok := r.metrics[d.name]
		if !ok && !trace {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out, nil
}

// timeSetups runs setup n times, discarding all but the last result, and
// returns that result with the median set-up time in seconds.
func timeSetups[T any](n int, setup func(i int) (T, error), discard func(T)) (T, float64, error) {
	var last T
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(last)
			runtime.GC()
		}
		start := time.Now()
		st, err := setup(i)
		if err != nil {
			return last, 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		secs = append(secs, time.Since(start).Seconds())
		last = st
	}
	return last, median(secs), nil
}

// heapPerRecord is the live heap after a collection over records. The
// workloads take it at the end of set-up: after a closed-loop phase the
// state holds as many versions as the run had time to commit, and each
// version carries its record list, so the figure would follow the host's
// speed.
func heapPerRecord(records int64) float64 {
	runtime.GC()
	return readRuntime().liveBytes / float64(records)
}

// endToEndMetrics fills the end-to-end metrics of an untraced phase.
func (r *report) endToEndMetrics(p phase, setupS, heap float64) error {
	m := r.metrics
	m["ops_per_s"] = float64(p.stats.completed()) / p.elapsed.Seconds()
	for _, k := range []opKind{opCheckout, opSelect, opCommit} {
		lat := p.stats.lat[k]
		if !enoughFor(len(lat), 0.5) {
			return fmt.Errorf("%d %s samples are too few for a median", len(lat), k)
		}
		m[k.String()+"_p50_ms"] = median(lat)
	}
	m["setup_s"] = setupS
	m["heap_bytes_per_record"] = heap
	return nil
}

// opLayers fills the per-layer metrics every workload's operations give:
// the read tail and the merge median of traced phase b, and the go.*
// metrics of untraced phase a.
func (r *report) opLayers(a, b phase) {
	r.metrics["read_p90_ms"] = tail(b.stats.reads(), 0.9)
	r.metrics["merge_p50_ms"] = median(b.stats.lat[opMerge])
	r.runtimeMetrics(a)
}

// runtimeMetrics fills the go.* metrics from an untraced phase.
func (r *report) runtimeMetrics(p phase) {
	m := r.metrics
	m["go.alloc_bytes_per_op"] = ratio(p.rt1.allocBytes-p.rt0.allocBytes, float64(p.stats.attempted))
	m["go.gc_cpu_share"] = ratio(p.rt1.gcCPU-p.rt0.gcCPU, p.rt1.totalCPU-p.rt0.totalCPU)
	m["go.gc_cycles"] = p.rt1.gcCycles - p.rt0.gcCycles
	m["go.heap_live_bytes"] = p.rt1.liveBytes
}

// addOps counts a phase's operations into the report.
func (r *report) addOps(s clientStats) {
	r.attempted += s.attempted
	r.failed += s.failed
	if s.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed operation:", s.firstErr)
	}
}

func run(cfg config) (*report, error) {
	switch cfg.workload {
	case "explore":
		return runExplore(cfg)
	case "ingest":
		return runIngest(cfg)
	case "serve":
		return runServe(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want explore, ingest or serve)", cfg.workload)
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: explore, ingest or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the dataset and the operation streams")
	flag.IntVar(&seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&cfg.dataDir, "data", ".", "directory under which durable data directories are made")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := rep.result(cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d output checks failed\n", rep.badChecks)
		os.Exit(1)
	}
}
