package durable

import (
	"sort"
	"time"

	"repro/internal/cvd"
	"repro/internal/recset"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// nanoTime converts a persisted UnixNano timestamp back to a time.Time,
// preserving the zero time (UnixNano of the zero time is undefined, so zero
// times are stored as 0).
func nanoTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// timeNano is the encoding half of nanoTime.
func timeNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// Snapshot is the complete persisted state of an engine: the backing
// database's tables (serialized straight from their columnar lanes) plus the
// logical state of every CVD. Epoch pairs the snapshot with the WAL
// generation that continues it (see Store.Checkpoint).
type Snapshot struct {
	DBName string
	Epoch  uint64
	Tables []*relstore.Table
	CVDs   []*cvd.PersistentState
}

// ---- table chunks -----------------------------------------------------------

// Lane presence bits of a serialized column.
const (
	laneInts uint8 = 1 << iota
	laneFloats
	laneStrs
	laneArrs
)

// ---- CVD chunks -------------------------------------------------------------

func sortedVersionKeys(m map[vgraph.VersionID]int) []vgraph.VersionID {
	out := make([]vgraph.VersionID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (d *dec) recset() *recset.Set {
	if d.err != nil {
		return recset.New()
	}
	s, n, err := recset.DecodeBinary(d.b[d.off:])
	if err != nil {
		d.fail("decoding record set: %v", err)
		return recset.New()
	}
	d.off += n
	return s
}
