package main

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cvd"
	"repro/internal/durable"
	"repro/internal/relstore"
	"repro/internal/vfs"
	"repro/internal/vgraph"
)

// The ingest workload: the write path. A small dataset (SCI_2K) on a durable
// engine (WAL fsync per commit under the default group-commit policy), two
// in-process closed-loop clients that mostly commit and merge, and a
// background CheckpointAsync every ckptEvery commits. No server.
var ingestMix = [numKinds]int{opCommit: 75, opMerge: 15, opCheckout: 5, opSelect: 5}

const (
	ingestPreset = "SCI_2K"
	ingestSetups = 3
	// ingestCkptEvery is the number of commits between background
	// checkpoints: at least ten complete in the shortest (traced) phase.
	ingestCkptEvery = 40
	// tailCommits are committed after the final checkpoint, so every run
	// recovers a WAL tail of the same length.
	tailCommits = 10
	// reopens is how many times recovery is timed.
	reopens = 3
)

type ingestState struct {
	dir  string
	fs   *countingFS
	e    *core.Engine
	c    *cvd.CVD
	base []vgraph.VersionID
}

func setupIngest(dir, preset string) (*ingestState, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	w, err := generate(preset)
	if err != nil {
		return nil, err
	}
	cfs := newCountingFS(vfs.OS())
	e, err := core.OpenDurable("perfbench", dir, core.WithFS(cfs))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	st := &ingestState{dir: dir, fs: cfs, e: e}
	st.c, st.base, err = seedEngine(e, w)
	if err == nil {
		err = e.Checkpoint()
	}
	if err != nil {
		st.discard()
		return nil, err
	}
	return st, nil
}

func (st *ingestState) discard() {
	st.e.Close()
	os.RemoveAll(st.dir)
}

// checkpointer takes a background checkpoint every n commits, timing the
// fence (CheckpointAsync's return) and the whole checkpoint (its done
// channel).
type checkpointer struct {
	e       *core.Engine
	every   int64
	commits atomic.Int64
	// kick has room for one pending request: a request made while a
	// checkpoint runs is kept, further ones coalesce into it.
	kick     chan struct{}
	done     chan struct{}
	fence    []float64 // ms
	total    []float64 // ms
	stats    []durable.CheckpointStats
	failures int64
	firstErr error
}

func startCheckpointer(e *core.Engine, every int) *checkpointer {
	k := &checkpointer{e: e, every: int64(every), kick: make(chan struct{}, 1), done: make(chan struct{})}
	go k.loop()
	return k
}

func (k *checkpointer) onCommit() {
	if k.commits.Add(1)%k.every == 0 {
		select {
		case k.kick <- struct{}{}:
		default:
		}
	}
}

func (k *checkpointer) loop() {
	defer close(k.done)
	for range k.kick {
		start := time.Now()
		done, err := k.e.CheckpointAsync()
		fence := time.Since(start)
		if err == nil {
			err = <-done
		}
		if err != nil {
			k.failures++
			if k.firstErr == nil {
				k.firstErr = err
			}
			continue
		}
		k.fence = append(k.fence, ms(fence))
		k.total = append(k.total, ms(time.Since(start)))
		if s, ok := k.e.LastCheckpoint(); ok {
			k.stats = append(k.stats, s)
		}
	}
}

// stop waits for the running checkpoint, if any, and ends the loop. Call it
// after every client has stopped.
func (k *checkpointer) stop() {
	close(k.kick)
	<-k.done
}

// runIngestPhase runs one closed-loop phase with a background checkpointer.
func runIngestPhase(st *ingestState, cls []*engineClient, d time.Duration, traced bool, every int) (phase, *checkpointer, ioSnapshot, ioSnapshot) {
	k := startCheckpointer(st.e, every)
	for _, cl := range cls {
		cl.onCommit = k.onCommit
	}
	io0 := st.fs.snapshot()
	p := runClosed(cls, d, traced)
	k.stop()
	io1 := st.fs.snapshot()
	return p, k, io0, io1
}

// addCheckpoints counts a phase's background checkpoints into the report as
// operations.
func (r *report) addCheckpoints(k *checkpointer) {
	r.attempted += int64(len(k.total)) + k.failures
	r.failed += k.failures
	if k.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed checkpoint:", k.firstErr)
	}
}

func runIngest(cfg config) (*report, error) {
	preset, setups := pick(cfg.preset, ingestPreset), pickInt(cfg.setups, ingestSetups)
	every := pickInt(cfg.ckptEvery, ingestCkptEvery)
	dir := func(i int) string {
		return filepath.Join(cfg.dataDir, fmt.Sprintf("perfbench-ingest-%d-%d", os.Getpid(), i))
	}
	st, setupS, err := timeSetups(setups, func(i int) (*ingestState, error) {
		return setupIngest(dir(i), preset)
	}, (*ingestState).discard)
	if err != nil {
		return nil, err
	}
	heap := heapPerRecord(st.c.NumRecords())
	defer st.discard()
	width := len(st.c.Schema().Columns)
	cls := make([]*engineClient, clients)
	for i := range cls {
		cls[i] = &engineClient{id: i, e: st.e, c: st.c, st: newStream(cfg.seed, "ingest", i, ingestMix, st.base, width)}
	}
	r := newReport()
	if !cfg.trace {
		p, k, _, _ := runIngestPhase(st, cls, cfg.seconds, false, every)
		r.addOps(p.stats)
		r.addCheckpoints(k)
		if err := r.endToEndMetrics(p, setupS, heap); err != nil {
			return nil, err
		}
	} else {
		a, ka, _, _ := runIngestPhase(st, cls, cfg.seconds/2, false, every)
		b, k, io0, io1 := runIngestPhase(st, cls, cfg.seconds/2, true, every)
		r.addOps(a.stats)
		r.addOps(b.stats)
		r.addCheckpoints(ka)
		r.addCheckpoints(k)
		r.inprocLayers(a, b)
		r.durableLayers(b, k, io0, io1)
		r.spans = b.spans
	}
	return r, st.finish(cfg.seed, r)
}

// durableLayers fills the WAL, file and checkpoint metrics of a phase.
func (r *report) durableLayers(p phase, k *checkpointer, io0, io1 ioSnapshot) {
	m := r.metrics
	commits := float64(len(p.stats.lat[opCommit]) + len(p.stats.lat[opMerge]))
	wal0, wal1 := io0.class[classWAL], io1.class[classWAL]
	m["wal.bytes_per_commit"] = ratio(float64(wal1.bytes-wal0.bytes), commits)
	m["wal.syncs_per_commit"] = ratio(float64(wal1.syncs-wal0.syncs), commits)
	var syncs []float64
	for _, d := range io1.walSyncs[len(io0.walSyncs):] {
		syncs = append(syncs, ms(d))
	}
	m["wal.sync_p50_ms"] = median(syncs)
	m["wal.sync_busy_share"] = ratio(float64(wal1.syncTime-wal0.syncTime), float64(p.elapsed))
	m["pack.bytes_written"] = float64(io1.class[classPack].bytes - io0.class[classPack].bytes)
	m["manifest.bytes_written"] = float64(io1.class[classManifest].bytes - io0.class[classManifest].bytes)
	m["vfs.renames"] = float64(io1.renames - io0.renames)
	m["vfs.syncdirs"] = float64(io1.syncDirs - io0.syncDirs)
	m["checkpoint_p50_ms"] = median(k.total)
	m["ckpt.fence_ms"] = median(k.fence)
	var complete, bytes, written []float64
	var chunks, chunksWritten int
	for i, s := range k.stats {
		complete = append(complete, k.total[i]-k.fence[i])
		bytes = append(bytes, float64(s.BytesWritten))
		written = append(written, float64(s.ChunksWritten))
		chunks += s.Chunks
		chunksWritten += s.ChunksWritten
	}
	m["ckpt.complete_ms"] = median(complete)
	m["ckpt.bytes_written"] = median(bytes)
	m["ckpt.chunks_written"] = median(written)
	m["ckpt.chunk_reuse"] = 1 - ratio(float64(chunksWritten), float64(chunks))
}

// finish takes a final checkpoint, commits a fixed WAL tail, closes the
// engine and times repeated recoveries of the data directory. After each
// reopen, every version committed in the run must check out bit-identical
// to the closed engine's copy; a version that does not is a failed check.
func (st *ingestState) finish(seed int64, r *report) error {
	if err := st.e.Checkpoint(); err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	disk, err := dirBytes(st.dir)
	if err != nil {
		return err
	}
	r.metrics["disk_bytes_per_record"] = float64(disk) / float64(st.c.NumRecords())
	wal0 := st.fs.snapshot().class[classWAL].bytes
	tail := &engineClient{id: clients, e: st.e, c: st.c, stats: &clientStats{},
		st: newStream(seed, "ingest-tail", 0, [numKinds]int{opCommit: 1}, st.base, len(st.c.Schema().Columns))}
	for i := 0; i < tailCommits; i++ {
		tail.do(tail.st.next())
	}
	r.addOps(*tail.stats)
	r.metrics["recovery.wal_tail_bytes"] = float64(st.fs.snapshot().class[classWAL].bytes - wal0)
	if err := st.e.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	// Close leaves the engine usable in memory: it is the reference copy.
	var runVersions []vgraph.VersionID
	for _, v := range st.c.Versions() {
		if !slices.Contains(st.base, v) {
			runVersions = append(runVersions, v)
		}
	}
	want, err := versionDigests(st.e, runVersions)
	if err != nil {
		return err
	}
	var secs []float64
	for i := 0; i < reopens; i++ {
		start := time.Now()
		re, err := core.OpenDurable("perfbench", st.dir)
		if err != nil {
			return fmt.Errorf("reopen %d: %w", i, err)
		}
		secs = append(secs, time.Since(start).Seconds())
		bad, err := sameVersions(st.e, re, runVersions, want)
		if cerr := re.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("reopen %d: %w", i, err)
		}
		r.badChecks += int64(bad)
	}
	r.metrics["recovery_s"] = median(secs)
	return nil
}

// digestSeed keys the row digests; both sides of a comparison run in this
// process.
var digestSeed = maphash.MakeSeed()

// versionDigests checks out each version and digests its cells: every
// value's type tag and exact payload, in row order.
func versionDigests(e *core.Engine, versions []vgraph.VersionID) (map[vgraph.VersionID]uint64, error) {
	c, err := e.CVD(cvdName)
	if err != nil {
		return nil, err
	}
	out := make(map[vgraph.VersionID]uint64, len(versions))
	var h maphash.Hash
	h.SetSeed(digestSeed)
	var buf [9]byte
	for _, v := range versions {
		tab := fmt.Sprintf("digest_%d", v)
		t, err := e.Checkout(cvdName, []vgraph.VersionID{v}, tab)
		if err != nil {
			return nil, err
		}
		h.Reset()
		width := len(t.Schema.Columns)
		for i := 0; i < t.Len(); i++ {
			for j := 0; j < width; j++ {
				x := t.At(i, j)
				buf[0] = byte(x.Type)
				if x.Type == relstore.TypeInt {
					binary.LittleEndian.PutUint64(buf[1:], uint64(x.I))
					h.Write(buf[:])
					continue
				}
				h.Write(buf[:1])
				h.WriteString(x.AsString())
				h.WriteByte(0)
			}
		}
		c.DiscardCheckout(tab)
		out[v] = h.Sum64()
	}
	return out, nil
}

// sameVersions compares each version's rows in got with the digests taken
// from want and returns how many differ, printing the first difference of
// each (core.RowsBitIdentical) to standard error.
func sameVersions(want, got *core.Engine, versions []vgraph.VersionID, digests map[vgraph.VersionID]uint64) (int, error) {
	have, err := versionDigests(got, versions)
	if err != nil {
		return 0, err
	}
	bad := 0
	for _, v := range versions {
		if have[v] == digests[v] {
			continue
		}
		bad++
		a, err := core.CheckoutVersionRows(want, cvdName, v, "want")
		if err != nil {
			return bad, err
		}
		b, err := core.CheckoutVersionRows(got, cvdName, v, "got")
		if err != nil {
			return bad, err
		}
		fmt.Fprintln(os.Stderr, "perfbench: recovered", core.RowsBitIdentical(fmt.Sprintf("version %d", v), a, b))
	}
	return bad, nil
}

// dirBytes is the total size of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
