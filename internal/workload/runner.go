package workload

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchmark"
	"repro/internal/core"
	"repro/internal/cvd"
	"repro/internal/durable"
	"repro/internal/vgraph"
)

// CVDName is the dataset name every spec-driven run loads its workload into.
const CVDName = "workload"

// errShed marks a 503 admission-control rejection: counted separately from
// errors (the server shedding under load is the designed degradation).
var errShed = fmt.Errorf("workload: request shed (503)")

// driver abstracts where operations land: directly on the engine, or over
// the orpheusd HTTP API.
type driver interface {
	// do performs one operation for the given client. rng is the client's
	// private random source.
	do(client int, rng *rand.Rand, op opKind) error
	// close releases driver resources (HTTP server, sessions).
	close() error
}

// Run compiles a spec into a driver and executes it: seed the dataset, fan
// out the clients, apply the operation mix until the op count or duration is
// exhausted, and return the report. The error is reserved for harness
// failures (bad spec, seed load, listener); per-operation failures are
// counted in the report instead.
func Run(spec *Spec) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg, err := spec.workloadConfig()
	if err != nil {
		return nil, err
	}
	w, err := benchmark.Generate(cfg)
	if err != nil {
		return nil, err
	}

	engine, dataDir, cleanup, err := openEngine(spec)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	if err := seedEngine(engine, w); err != nil {
		return nil, fmt.Errorf("workload: seeding %s: %w", spec.Dataset, err)
	}
	c, err := engine.CVD(CVDName)
	if err != nil {
		return nil, err
	}
	report := &Report{
		Spec:         *spec,
		SeedVersions: c.NumVersions(),
		SeedRecords:  c.NumRecords(),
	}

	var drv driver
	// httpDrv keeps the concrete driver reachable after decorators wrap it
	// (the retry counter lives on it, not on the ckptDriver wrapper).
	var httpDrv *httpDriver
	switch spec.Mode {
	case ModeHTTP:
		httpDrv, err = newHTTPDriver(engine, spec)
		drv = httpDrv
	default:
		drv, err = newEngineDriver(engine, spec)
	}
	if err != nil {
		return nil, err
	}
	drvClosed := false
	defer func() {
		if !drvClosed {
			drv.close()
		}
	}()

	// engine.checkpoint_every: a decorator counts successful commits and a
	// dedicated goroutine runs the checkpoints, so client latency only sees
	// the commit fence (COW capture + WAL segment seal), never the encode.
	var ckpt *ckptDriver
	var ckptWG sync.WaitGroup
	if spec.Engine.CheckpointEvery > 0 {
		ckpt = &ckptDriver{driver: drv, every: int64(spec.Engine.CheckpointEvery), trigger: make(chan struct{}, 1)}
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			for range ckpt.trigger {
				for ckpt.pending.Load() > 0 {
					ckpt.pending.Add(-1)
					if err := engine.Checkpoint(); err != nil {
						ckpt.errs.Add(1)
					} else {
						ckpt.done.Add(1)
					}
				}
			}
		}()
		drv = ckpt
	}

	recs := runClients(spec, drv)
	if ckpt != nil {
		close(ckpt.trigger)
		ckptWG.Wait()
		report.Checkpoints = ckpt.done.Load()
		report.CheckpointErrors = ckpt.errs.Load()
	}

	elapsed := recs.elapsed
	report.ElapsedMs = msf(elapsed)
	report.Ops = mergeStats(recs.perClient)
	for _, st := range report.Ops {
		report.TotalOps += st.Count
		report.TotalErrors += st.Errors
		report.TotalShed += st.Shed
	}
	if httpDrv != nil {
		report.TotalRetries = httpDrv.retries.Load()
	}
	if elapsed > 0 {
		report.ThroughputPerSec = float64(report.TotalOps) / elapsed.Seconds()
	}
	report.FinalVersions = c.NumVersions()
	report.FinalRecords = c.NumRecords()

	// engine.restore_epoch: shut the live store down, reopen the data dir at
	// the requested (or latest) retained manifest epoch, and prove the
	// point-in-time state checks out. Must run before cleanup removes a
	// disposable temp dir.
	if spec.Engine.RestoreEpoch != 0 {
		drvClosed = true
		if err := drv.close(); err != nil {
			return nil, err
		}
		if err := engine.Close(); err != nil {
			return nil, err
		}
		if err := verifyRestore(spec, dataDir, report); err != nil {
			return nil, err
		}
	}
	return report, nil
}

// ckptDriver decorates a driver to count successful commits and queue one
// checkpoint every `every` of them, so a run checkpoints exactly
// commits/every times however long each checkpoint takes. Clients never
// block on it: a checkpoint is queued by bumping pending, and the trigger
// channel (capacity 1, non-blocking sends) only wakes the checkpointer
// goroutine, which runs checkpoints until pending drains.
type ckptDriver struct {
	driver
	every   int64
	commits atomic.Int64
	pending atomic.Int64
	done    atomic.Int64
	errs    atomic.Int64
	trigger chan struct{}
}

func (c *ckptDriver) do(client int, rng *rand.Rand, op opKind) error {
	err := c.driver.do(client, rng, op)
	if err == nil && op == opCommit {
		if n := c.commits.Add(1); n%c.every == 0 {
			c.pending.Add(1)
			select {
			case c.trigger <- struct{}{}:
			default:
			}
		}
	}
	return err
}

// verifyRestore reopens dir at the spec's restore epoch (-1 = latest
// retained) and checks the workload CVD out at its first and newest version.
func verifyRestore(spec *Spec, dir string, report *Report) error {
	epochs, err := durable.ListEpochs(dir)
	if err != nil {
		return fmt.Errorf("workload: restore_epoch: %w", err)
	}
	if len(epochs) == 0 {
		return fmt.Errorf("workload: restore_epoch: no retained epochs in %s (did any checkpoint run?)", dir)
	}
	var epoch uint64
	if spec.Engine.RestoreEpoch < 0 {
		epoch = epochs[len(epochs)-1]
	} else {
		epoch = uint64(spec.Engine.RestoreEpoch)
		found := false
		for _, e := range epochs {
			found = found || e == epoch
		}
		if !found {
			return fmt.Errorf("workload: restore_epoch %d not retained (have %v)", epoch, epochs)
		}
	}
	re, err := core.OpenAtEpoch(spec.Name+"-restore", dir, epoch)
	if err != nil {
		return fmt.Errorf("workload: restoring epoch %d: %w", epoch, err)
	}
	defer re.Close()
	c, err := re.CVD(CVDName)
	if err != nil {
		return fmt.Errorf("workload: restored epoch %d: %w", epoch, err)
	}
	// Version ids are dense and commit-ordered, so the newest id equals the
	// version count at that epoch.
	latest := vgraph.VersionID(c.NumVersions())
	for _, v := range []vgraph.VersionID{1, latest} {
		if _, err := core.CheckoutVersionRows(re, CVDName, v, fmt.Sprintf("restore-epoch-%d", epoch)); err != nil {
			return fmt.Errorf("workload: restored epoch %d: version %d: %w", epoch, v, err)
		}
	}
	report.RestoredEpoch = epoch
	report.RestoreVerified = true
	return nil
}

// clientRun is the outcome of the client fan-out.
type clientRun struct {
	perClient []*latencyRecorder
	elapsed   time.Duration
}

// runClients drives the operation mix from spec.Clients goroutines until the
// op budget or the duration is exhausted.
func runClients(spec *Spec, drv driver) clientRun {
	recs := make([]*latencyRecorder, spec.Clients)
	var issued atomic.Int64
	var deadline time.Time
	if spec.Duration > 0 {
		deadline = time.Now().Add(spec.Duration.Std())
	}
	start := time.Now()
	var wg sync.WaitGroup
	for client := 0; client < spec.Clients; client++ {
		rec := &latencyRecorder{}
		recs[client] = rec
		wg.Add(1)
		go func(client int, rec *latencyRecorder) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(spec.Seed + int64(client)*7919))
			for {
				if spec.Ops > 0 {
					if issued.Add(1) > int64(spec.Ops) {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				op := pickOp(rng, spec.Mix)
				opStart := time.Now()
				err := drv.do(client, rng, op)
				lat := time.Since(opStart)
				switch {
				case err == nil:
					rec.record(op, lat)
				case err == errShed:
					rec.shed[op]++
				default:
					rec.errors[op]++
				}
			}
		}(client, rec)
	}
	wg.Wait()
	return clientRun{perClient: recs, elapsed: time.Since(start)}
}

// pickOp draws an operation from the mix.
func pickOp(rng *rand.Rand, m Mix) opKind {
	r := rng.Intn(100)
	switch {
	case r < m.Commit:
		return opCommit
	case r < m.Commit+m.Checkout:
		return opCheckout
	case r < m.Commit+m.Checkout+m.Select:
		return opSelect
	default:
		return opMerge
	}
}

// openEngine builds the engine the spec asks for: ephemeral or durable (in
// the spec's data_dir or a disposable temp dir), with the worker and
// group-commit knobs applied. For durable engines it also returns the data
// directory so the runner can reopen it for restore verification.
func openEngine(spec *Spec) (*core.Engine, string, func(), error) {
	opts := []core.Option{core.WithWorkers(spec.Engine.Workers)}
	if spec.Engine.GroupCommitBatch != 0 || spec.Engine.GroupCommitDelay != 0 {
		opts = append(opts, core.GroupCommit(spec.Engine.GroupCommitBatch, spec.Engine.GroupCommitDelay.Std()))
	}
	if !spec.Engine.Durable {
		return core.Open(spec.Name, opts...), "", func() {}, nil
	}
	dir := spec.Engine.DataDir
	removeDir := false
	if dir == "" {
		tmp, err := os.MkdirTemp("", "workload-"+spec.Name+"-*")
		if err != nil {
			return nil, "", nil, err
		}
		dir = tmp
		removeDir = true
	}
	engine, err := core.OpenDurable(spec.Name, dir, opts...)
	if err != nil {
		if removeDir {
			os.RemoveAll(dir)
		}
		return nil, "", nil, err
	}
	cleanup := func() {
		engine.Close()
		if removeDir {
			os.RemoveAll(dir)
		}
	}
	return engine, dir, cleanup, nil
}

// seedEngine loads a generated workload into the engine through the engine
// façade (unlike benchmark.LoadCVD, which builds the CVD underneath it), so
// on a durable engine the whole seed history is journaled and survives
// crashes — the property the crash harness and durable specs depend on.
func seedEngine(e *core.Engine, w *benchmark.Workload) error {
	order := w.Graph.TopoOrder()
	if len(order) == 0 {
		return fmt.Errorf("workload has no versions")
	}
	if _, err := e.Init(CVDName, w.Schema, w.Rows(order[0]), cvd.Options{
		Author:  "workload",
		Message: "seed version",
	}); err != nil {
		return err
	}
	c, err := e.CVD(CVDName)
	if err != nil {
		return err
	}
	// Version ids were assigned in commit order; committing in id order keeps
	// them aligned (same invariant as benchmark.LoadCVD).
	rest := append([]vgraph.VersionID(nil), order[1:]...)
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	for _, v := range rest {
		got, err := c.Commit(w.Graph.Parents(v), w.Rows(v), w.Schema, fmt.Sprintf("seed version %d", v), "workload")
		if err != nil {
			return fmt.Errorf("committing seed version %d: %w", v, err)
		}
		if got != v {
			return fmt.Errorf("seed version id mismatch: committed %d, expected %d", got, v)
		}
	}
	return nil
}
