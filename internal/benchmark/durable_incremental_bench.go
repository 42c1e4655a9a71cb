package benchmark

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/cvd"
	"repro/internal/durable"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// CheckpointCost is one checkpoint's measured footprint, lifted from
// durable.CheckpointStats into the report document.
type CheckpointCost struct {
	Epoch         uint64 `json:"epoch"`
	Chunks        int    `json:"chunks"`
	ChunksWritten int    `json:"chunks_written"`
	ChunkBytes    int64  `json:"chunk_bytes"`
	BytesWritten  int64  `json:"bytes_written"`
	Ns            int64  `json:"ns"`
}

func checkpointCost(s durable.CheckpointStats) CheckpointCost {
	return CheckpointCost{
		Epoch:         s.Epoch,
		Chunks:        s.Chunks,
		ChunksWritten: s.ChunksWritten,
		ChunkBytes:    s.ChunkBytes,
		BytesWritten:  s.BytesWritten,
		Ns:            s.Duration.Nanoseconds(),
	}
}

// IncrementalReport is the durable-incremental experiment document: a full
// checkpoint of a seeded engine vs an incremental checkpoint after a burst
// of small commits, plus the lane-codec compression ratio of the snapshot.
type IncrementalReport struct {
	Dataset  string `json:"dataset"`
	Scale    int    `json:"scale"`
	Versions int    `json:"versions"`
	Records  int64  `json:"records"`

	// Full is the first checkpoint: every chunk is new.
	Full CheckpointCost `json:"full"`
	// Incremental is the checkpoint after BurstCommits small commits:
	// unchanged chunks are reused by content hash, so only the delta lands
	// on disk.
	BurstCommits int            `json:"burst_commits"`
	Incremental  CheckpointCost `json:"incremental"`

	// BytesWrittenRatio is incremental/full bytes written — the incremental
	// claim (TestRunDurableIncremental requires <= 0.15).
	BytesWrittenRatio float64 `json:"bytes_written_ratio"`
	// Speedup is full/incremental checkpoint wall time (requires >= 4x).
	Speedup float64 `json:"speedup"`

	// Lane-codec effect on the snapshot's chunk payload bytes: identity
	// encodings vs the sampled dict/delta codecs (requires >= 2x on SCI
	// presets).
	RawSnapshotBytes     int64   `json:"raw_snapshot_bytes"`
	EncodedSnapshotBytes int64   `json:"encoded_snapshot_bytes"`
	CompressionRatio     float64 `json:"compression_ratio"`

	Results []DurableResult `json:"results"`
}

// JSON renders the report.
func (r IncrementalReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// burstRows builds one small commit's payload: fresh records whose keys sit
// far above the generated id space, so every burst commit appends a handful
// of new records instead of rewriting existing ones.
func burstRows(schema relstore.Schema, commit, perCommit int) []relstore.Row {
	cols := len(schema.ColumnNames())
	rows := make([]relstore.Row, 0, perCommit)
	for j := 0; j < perCommit; j++ {
		key := int64(10_000_000 + commit*perCommit + j)
		row := make(relstore.Row, cols)
		row[0] = relstore.Int(key)
		for i := 1; i < cols; i++ {
			row[i] = relstore.Int(key*31 + int64(i))
		}
		rows = append(rows, row)
	}
	return rows
}

// RunDurableIncremental measures what the content-addressed chunk store buys
// over rewriting the world:
//
//   - checkpoint-full: first checkpoint of a freshly seeded engine — every
//     band chunk is new, so this is the full-snapshot cost incremental runs
//     are compared against.
//   - checkpoint-incremental: after 20 small commits (a few dozen fresh
//     records each), only the tail bands, record-set runs, catalog band and
//     CVD head differ; interior chunks are reused by content hash.
//   - lane codecs: the same engine's snapshot, chunked with identity lanes
//     vs the sampled dict/delta codecs (chunk payload bytes).
//
// The acceptance bars (TestRunDurableIncremental): incremental bytes written
// <= 15% of the full checkpoint, incremental wall time >= 4x faster, and the
// codecs shrink the snapshot >= 2x on SCI-style data.
func RunDurableIncremental(dataset string, scale int) (IncrementalReport, Table, error) {
	report := IncrementalReport{Dataset: dataset, Scale: scale}
	cfg, err := Preset(dataset, scale)
	if err != nil {
		return report, Table{}, err
	}
	w, err := Generate(cfg)
	if err != nil {
		return report, Table{}, err
	}

	workDir, err := os.MkdirTemp("", "durable-incr-*")
	if err != nil {
		return report, Table{}, err
	}
	defer os.RemoveAll(workDir)

	// Seed in memory (no per-commit fsync) and adopt into a durable engine;
	// the first checkpoint attaches the adopted CVD to the journal, so the
	// burst commits after it are WAL-logged like any live engine's.
	dataDir := filepath.Join(workDir, "data")
	engine, err := core.OpenDurable("durable-incr", dataDir)
	if err != nil {
		return report, Table{}, err
	}
	defer engine.Close()
	c, err := LoadCVD(engine.Database(), "cvd", w, cvd.SplitByRlist)
	if err != nil {
		return report, Table{}, err
	}
	if err := engine.Adopt(c); err != nil {
		return report, Table{}, err
	}
	report.Versions = c.NumVersions()
	report.Records = c.NumRecords()

	// ---- full checkpoint -----------------------------------------------------
	if err := engine.Checkpoint(); err != nil {
		return report, Table{}, err
	}
	full, ok := engine.LastCheckpoint()
	if !ok {
		return report, Table{}, fmt.Errorf("benchmark: no stats after full checkpoint")
	}
	report.Full = checkpointCost(full)
	report.Results = append(report.Results, DurableResult{
		Name:   "checkpoint-full",
		Detail: fmt.Sprintf("first checkpoint, %d chunks all written", full.Chunks),
		Reps:   1, Ns: full.Duration.Nanoseconds(), Bytes: full.BytesWritten,
		MBps: mbps(full.BytesWritten, full.Duration.Nanoseconds()),
	})

	// ---- small-delta burst + incremental checkpoint --------------------------
	const burstCommits, rowsPerCommit = 20, 25
	report.BurstCommits = burstCommits
	for i := 0; i < burstCommits; i++ {
		if _, err := c.Commit([]vgraph.VersionID{1}, burstRows(w.Schema, i, rowsPerCommit), w.Schema,
			fmt.Sprintf("burst %d", i), "bench"); err != nil {
			return report, Table{}, err
		}
	}
	if err := engine.Checkpoint(); err != nil {
		return report, Table{}, err
	}
	incr, ok := engine.LastCheckpoint()
	if !ok {
		return report, Table{}, fmt.Errorf("benchmark: no stats after incremental checkpoint")
	}
	report.Incremental = checkpointCost(incr)
	report.Results = append(report.Results, DurableResult{
		Name: "checkpoint-incremental",
		Detail: fmt.Sprintf("after %d small commits: %d/%d chunks rewritten",
			burstCommits, incr.ChunksWritten, incr.Chunks),
		Reps: 1, Ns: incr.Duration.Nanoseconds(), Bytes: incr.BytesWritten,
		MBps: mbps(incr.BytesWritten, incr.Duration.Nanoseconds()),
	})
	if full.BytesWritten > 0 {
		report.BytesWrittenRatio = float64(incr.BytesWritten) / float64(full.BytesWritten)
	}
	if incr.Duration > 0 {
		report.Speedup = float64(full.Duration.Nanoseconds()) / float64(incr.Duration.Nanoseconds())
	}

	// ---- lane-codec compression ----------------------------------------------
	// Export the engine (Save writes one checkpoint into a fresh directory),
	// read that checkpoint's snapshot back, and compare its chunk payload
	// bytes under identity lanes vs the sampled dict/delta codecs.
	snapDir := filepath.Join(workDir, "snap")
	if err := engine.Save(snapDir); err != nil {
		return report, Table{}, err
	}
	epochs, err := durable.ListEpochs(snapDir)
	if err != nil {
		return report, Table{}, err
	}
	if len(epochs) != 1 {
		return report, Table{}, fmt.Errorf("benchmark: export holds epochs %v, want exactly one", epochs)
	}
	snap, err := durable.OpenAtEpoch(snapDir, epochs[0])
	if err != nil {
		return report, Table{}, err
	}
	report.RawSnapshotBytes, report.EncodedSnapshotBytes = durable.LaneCodecBytes(snap)
	if report.EncodedSnapshotBytes > 0 {
		report.CompressionRatio = float64(report.RawSnapshotBytes) / float64(report.EncodedSnapshotBytes)
	}
	report.Results = append(report.Results,
		DurableResult{
			Name:   "snapshot-raw-lanes",
			Detail: "snapshot chunk payloads, identity lane encodings",
			Reps:   1, Bytes: report.RawSnapshotBytes,
		},
		DurableResult{
			Name:   "snapshot-encoded-lanes",
			Detail: fmt.Sprintf("sampled dict/delta codecs (%.1fx smaller)", report.CompressionRatio),
			Reps:   1, Bytes: report.EncodedSnapshotBytes,
		})

	table := Table{
		Title: fmt.Sprintf("Incremental checkpoints: content-addressed chunks (%s, scale %d; %.1f%% of full bytes, %.1fx faster, codecs %.1fx)",
			dataset, scale, report.BytesWrittenRatio*100, report.Speedup, report.CompressionRatio),
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
