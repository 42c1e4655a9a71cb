package benchmark

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/cvd"
	"repro/internal/durable"
	"repro/internal/vgraph"
)

// DurableResult is one durable-storage measurement.
type DurableResult struct {
	Name   string  `json:"name"`
	Detail string  `json:"detail"`
	Reps   int     `json:"reps"`
	Ns     int64   `json:"ns"` // per-rep wall time
	Bytes  int64   `json:"bytes,omitempty"`
	MBps   float64 `json:"mb_per_sec,omitempty"`
}

// DurableReport is the BENCH_durable.json document: snapshot write/restore
// throughput, WAL append and replay costs, and the recovery-path comparison
// (snapshot restore and WAL replay vs rebuilding the engine from CSV).
type DurableReport struct {
	Dataset  string `json:"dataset"`
	Scale    int    `json:"scale"`
	Versions int    `json:"versions"`
	Records  int64  `json:"records"`

	SnapshotBytes int64 `json:"snapshot_bytes"`
	WALBytes      int64 `json:"wal_bytes"`

	// RestoreSpeedupVsCSV is snapshot-restore time vs re-initializing the
	// engine from per-version CSV exports — the acceptance metric
	// (TestRunDurable requires >= 2x).
	RestoreSpeedupVsCSV float64 `json:"restore_speedup_vs_csv"`
	// ReplaySpeedupVsCSV is the same comparison for pure WAL replay.
	ReplaySpeedupVsCSV float64 `json:"replay_speedup_vs_csv"`

	Results []DurableResult `json:"results"`

	// Incremental holds the durable-incremental experiment (content-addressed
	// chunk reuse + lane codecs), attached when the durable experiment runs
	// through benchrunner so BENCH_durable.json carries both.
	Incremental *IncrementalReport `json:"incremental,omitempty"`
}

// JSON renders the report.
func (r DurableReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// versionCSV renders one version's rows as a CSV document (header + rows) for
// the re-init-from-CSV baseline.
func versionCSV(w *Workload, v vgraph.VersionID) []byte {
	var buf bytes.Buffer
	cols := w.Schema.ColumnNames()
	for i, c := range cols {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(c)
	}
	buf.WriteByte('\n')
	for _, row := range w.Rows(v) {
		for i, val := range row {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(strconv.FormatInt(val.AsInt(), 10))
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// commitOrder returns the workload's version ids in replayable order (the
// same order LoadCVD commits them).
func commitOrder(w *Workload) []vgraph.VersionID {
	order := w.Graph.TopoOrder()
	rest := append([]vgraph.VersionID(nil), order[1:]...)
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	return append([]vgraph.VersionID{order[0]}, rest...)
}

// exportBytes is the on-disk size of a Save export: its chunk pack plus its
// checkpoint manifest.
func exportBytes(dir string) (int64, error) {
	manifests, err := filepath.Glob(filepath.Join(dir, "manifest-*.orph"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, path := range append(manifests, filepath.Join(dir, durable.PackFile)) {
		info, err := os.Stat(path)
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// RunDurable measures the durable storage subsystem on a generated workload:
//
//   - snapshot-save: Save of a loaded engine — one full checkpoint (columnar
//     lanes, recsets, version graph, metadata) into a fresh directory; its
//     bytes are the export's chunk pack plus manifest.
//   - snapshot-restore: OpenDurable from the snapshot alone — the fast
//     recovery path.
//   - wal-write: loading the same workload through a journaled engine, i.e.
//     the ongoing fsync-per-commit overhead.
//   - wal-replay: OpenDurable from the WAL alone — recovery without a
//     checkpoint.
//   - csv-reinit: rebuilding the engine by re-importing every version from
//     CSV (InitFromCSV + CommitCSV), the no-durability baseline.
//
// The restore-vs-CSV ratio is the headline number: recovery from the binary
// snapshot must beat logical re-ingestion by at least 2x (TestRunDurable).
func RunDurable(dataset string, scale int) (DurableReport, Table, error) {
	report := DurableReport{Dataset: dataset, Scale: scale}
	cfg, err := Preset(dataset, scale)
	if err != nil {
		return report, Table{}, err
	}
	w, err := Generate(cfg)
	if err != nil {
		return report, Table{}, err
	}
	report.Versions = w.Bipartite.NumVersions()
	report.Records = w.Bipartite.NumRecords()

	workDir, err := os.MkdirTemp("", "durable-bench-*")
	if err != nil {
		return report, Table{}, err
	}
	defer os.RemoveAll(workDir)

	engine := core.Open("durable")
	c, err := LoadCVD(engine.Database(), "cvd", w, cvd.SplitByRlist)
	if err != nil {
		return report, Table{}, err
	}
	if err := engine.Adopt(c); err != nil {
		return report, Table{}, err
	}
	wantVersions := c.NumVersions()
	wantRecords := c.NumRecords()

	// ---- snapshot write ----------------------------------------------------
	const saveReps = 3
	snapDir := filepath.Join(workDir, "snap")
	var saveTotal time.Duration
	for i := 0; i < saveReps; i++ {
		os.RemoveAll(snapDir)
		start := time.Now()
		if err := engine.Save(snapDir); err != nil {
			return report, Table{}, err
		}
		saveTotal += time.Since(start)
	}
	if report.SnapshotBytes, err = exportBytes(snapDir); err != nil {
		return report, Table{}, err
	}
	saveNs := saveTotal.Nanoseconds() / saveReps
	report.Results = append(report.Results, DurableResult{
		Name:   "snapshot-save",
		Detail: fmt.Sprintf("%d versions, %d records", report.Versions, report.Records),
		Reps:   saveReps, Ns: saveNs, Bytes: report.SnapshotBytes,
		MBps: mbps(report.SnapshotBytes, saveNs),
	})

	// ---- snapshot restore ----------------------------------------------------
	const restoreReps = 3
	var restoreTotal time.Duration
	for i := 0; i < restoreReps; i++ {
		start := time.Now()
		restored, err := core.OpenDurable("durable", snapDir)
		if err != nil {
			return report, Table{}, err
		}
		restoreTotal += time.Since(start)
		rc, err := restored.CVD("cvd")
		if err != nil {
			return report, Table{}, err
		}
		if rc.NumVersions() != wantVersions || rc.NumRecords() != wantRecords {
			return report, Table{}, fmt.Errorf("benchmark: restore mismatch: %d/%d versions, %d/%d records",
				rc.NumVersions(), wantVersions, rc.NumRecords(), wantRecords)
		}
		restored.Close()
	}
	restoreNs := restoreTotal.Nanoseconds() / restoreReps
	report.Results = append(report.Results, DurableResult{
		Name:   "snapshot-restore",
		Detail: "OpenDurable from snapshot only",
		Reps:   restoreReps, Ns: restoreNs, Bytes: report.SnapshotBytes,
		MBps: mbps(report.SnapshotBytes, restoreNs),
	})

	// ---- WAL write (journaled load) -----------------------------------------
	order := commitOrder(w)
	walDir := filepath.Join(workDir, "wal")
	start := time.Now()
	we, err := core.OpenDurable("durable", walDir)
	if err != nil {
		return report, Table{}, err
	}
	if _, err := we.Init("cvd", w.Schema, w.Rows(order[0]), cvd.Options{Author: "bench", Message: "initial version"}); err != nil {
		return report, Table{}, err
	}
	wc, err := we.CVD("cvd")
	if err != nil {
		return report, Table{}, err
	}
	for _, v := range order[1:] {
		if _, err := wc.Commit(w.Graph.Parents(v), w.Rows(v), w.Schema, "bench", "bench"); err != nil {
			return report, Table{}, err
		}
	}
	walWrite := time.Since(start)
	we.Close()
	report.WALBytes, err = durable.WALBytes(walDir)
	if err != nil {
		return report, Table{}, err
	}
	report.Results = append(report.Results, DurableResult{
		Name:   "wal-write",
		Detail: fmt.Sprintf("journaled load, fsync per commit, %d commits", len(order)),
		Reps:   1, Ns: walWrite.Nanoseconds(), Bytes: report.WALBytes,
		MBps: mbps(report.WALBytes, walWrite.Nanoseconds()),
	})

	// ---- WAL replay ----------------------------------------------------------
	start = time.Now()
	re, err := core.OpenDurable("durable", walDir)
	if err != nil {
		return report, Table{}, err
	}
	walReplay := time.Since(start)
	rc, err := re.CVD("cvd")
	if err != nil {
		return report, Table{}, err
	}
	if rc.NumVersions() != wantVersions {
		return report, Table{}, fmt.Errorf("benchmark: WAL replay recovered %d versions, want %d", rc.NumVersions(), wantVersions)
	}
	re.Close()
	report.Results = append(report.Results, DurableResult{
		Name:   "wal-replay",
		Detail: "OpenDurable from WAL only (no snapshot)",
		Reps:   1, Ns: walReplay.Nanoseconds(), Bytes: report.WALBytes,
		MBps: mbps(report.WALBytes, walReplay.Nanoseconds()),
	})

	// ---- re-init from CSV baseline -------------------------------------------
	csvDocs := make(map[vgraph.VersionID][]byte, len(order))
	var csvBytes int64
	for _, v := range order {
		doc := versionCSV(w, v)
		csvDocs[v] = doc
		csvBytes += int64(len(doc))
	}
	start = time.Now()
	ce := core.Open("durable")
	if _, err := ce.InitFromCSV("cvd", bytes.NewReader(csvDocs[order[0]]), w.Schema, cvd.Options{Author: "bench", Message: "initial version"}); err != nil {
		return report, Table{}, err
	}
	cc, err := ce.CVD("cvd")
	if err != nil {
		return report, Table{}, err
	}
	for _, v := range order[1:] {
		if _, err := cc.CommitCSV(w.Graph.Parents(v), bytes.NewReader(csvDocs[v]), w.Schema, "bench", "bench"); err != nil {
			return report, Table{}, err
		}
	}
	csvReinit := time.Since(start)
	if cc.NumVersions() != wantVersions {
		return report, Table{}, fmt.Errorf("benchmark: CSV re-init produced %d versions, want %d", cc.NumVersions(), wantVersions)
	}
	report.Results = append(report.Results, DurableResult{
		Name:   "csv-reinit",
		Detail: fmt.Sprintf("InitFromCSV + CommitCSV of every version (%d MiB of CSV)", csvBytes>>20),
		Reps:   1, Ns: csvReinit.Nanoseconds(), Bytes: csvBytes,
		MBps: mbps(csvBytes, csvReinit.Nanoseconds()),
	})

	if restoreNs > 0 {
		report.RestoreSpeedupVsCSV = float64(csvReinit.Nanoseconds()) / float64(restoreNs)
	}
	if walReplay > 0 {
		report.ReplaySpeedupVsCSV = float64(csvReinit.Nanoseconds()) / float64(walReplay.Nanoseconds())
	}

	table := Table{
		Title: fmt.Sprintf("Durable storage: snapshot + WAL vs CSV re-init (%s, scale %d; restore %.1fx, replay %.1fx vs CSV)",
			dataset, scale, report.RestoreSpeedupVsCSV, report.ReplaySpeedupVsCSV),
		Columns: []string{"measurement", "reps", "time", "bytes", "MB/s", "detail"},
	}
	for _, r := range report.Results {
		table.Rows = append(table.Rows, []string{
			r.Name, fmt.Sprintf("%d", r.Reps), ms(time.Duration(r.Ns)),
			fmt.Sprintf("%d", r.Bytes), f2(r.MBps), r.Detail,
		})
	}
	return report, table, nil
}

func mbps(bytes, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / (float64(ns) / 1e9)
}
