package benchmark

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// This file freezes the superseded implementations of the hot paths so the
// before/after experiments can report honest numbers against the same
// inputs: the pre-recset map-based LyreSplit and clone-per-row checkout
// (RunRecset), the pre-columnar row-backed physical table layout with its
// closure-per-row predicate evaluation (RunColumnar), and the string-key
// commit diff that the content index replaced (the reference of the
// commit-equivalence tests). Nothing outside the benchmark harness calls
// these.

// legacyRowTable freezes the pre-columnar physical layout of
// relstore.Table: boxed Row tuples in a []Row slice, scanned row at a time,
// with a string-keyed staging index. Every scanned cell pays the Value
// struct copy and type-tag branch the columnar vectors eliminated.
type legacyRowTable struct {
	schema relstore.Schema
	rows   []relstore.Row
}

// newLegacyRowTable materializes a frozen row-backed copy of a table (done
// once outside any timed region).
func newLegacyRowTable(t *relstore.Table) *legacyRowTable {
	return &legacyRowTable{schema: t.Schema.Clone(), rows: t.Rows()}
}

// filter is the frozen row-at-a-time predicate scan (relstore.Table.Filter
// before the columnar rewrite).
func (t *legacyRowTable) filter(pred func(relstore.Row) bool) []relstore.Row {
	var out []relstore.Row
	for _, r := range t.rows {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// legacyNamedPredicate is the frozen cvd.NamedPredicate: a closure that
// re-dispatches on the operator string for every row it tests.
func legacyNamedPredicate(schema relstore.Schema, column, op string, value relstore.Value) (func(relstore.Row) bool, error) {
	idx := schema.ColumnIndex(column)
	if idx < 0 {
		return nil, fmt.Errorf("benchmark: unknown column %q", column)
	}
	return func(r relstore.Row) bool {
		if idx >= len(r) {
			return false
		}
		cmp := r[idx].Compare(value)
		switch op {
		case "=", "==":
			return cmp == 0
		case "!=", "<>":
			return cmp != 0
		case "<":
			return cmp < 0
		case "<=":
			return cmp <= 0
		case ">":
			return cmp > 0
		case ">=":
			return cmp >= 0
		default:
			return false
		}
	}, nil
}

// legacyLyreSplitResult mirrors partition.LyreSplitResult's estimates so the
// harness can cross-check that old and new implementations agree.
type legacyLyreSplitResult struct {
	Assignment             map[vgraph.VersionID]int
	EstimatedStorage       int64
	EstimatedTotalCheckout int64
}

type legacyPart struct {
	root    vgraph.VersionID
	members map[vgraph.VersionID]bool
	nV      int
	nR      int64
	nE      int64
}

// legacyLyreSplit is the pre-recset LyreSplit: parts hold their members in
// map[VersionID]bool, splitting copies maps, and candidate evaluation sorts
// the member set on every split to restore a deterministic order.
func legacyLyreSplit(t *vgraph.Tree, delta float64) (legacyLyreSplitResult, error) {
	if err := t.Validate(); err != nil {
		return legacyLyreSplitResult{}, err
	}
	if delta <= 0 || delta > 1 {
		return legacyLyreSplitResult{}, fmt.Errorf("benchmark: delta %g out of range (0, 1]", delta)
	}
	fill := func(p *legacyPart) {
		p.nV = len(p.members)
		p.nE, p.nR = 0, 0
		for v := range p.members {
			p.nE += t.Records[v]
			if v == p.root {
				p.nR += t.Records[v]
			} else {
				p.nR += t.Records[v] - t.Weight[v]
			}
		}
	}
	root := &legacyPart{root: t.Root, members: make(map[vgraph.VersionID]bool, t.NumVersions())}
	for _, v := range t.SubtreeVersions(t.Root) {
		root.members[v] = true
	}
	fill(root)

	res := legacyLyreSplitResult{Assignment: make(map[vgraph.VersionID]int)}
	var finished []*legacyPart
	queue := []*legacyPart{root}
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if p.nV <= 1 || float64(p.nR)*float64(p.nV) <= float64(p.nE)/delta {
			finished = append(finished, p)
			continue
		}
		cutChild, ok := legacyPickSplitEdge(t, p, delta)
		if !ok {
			finished = append(finished, p)
			continue
		}
		right := &legacyPart{root: cutChild, members: make(map[vgraph.VersionID]bool)}
		for _, v := range t.SubtreeVersions(cutChild) {
			if p.members[v] {
				right.members[v] = true
			}
		}
		left := &legacyPart{root: p.root, members: make(map[vgraph.VersionID]bool, len(p.members)-len(right.members))}
		for v := range p.members {
			if !right.members[v] {
				left.members[v] = true
			}
		}
		fill(left)
		fill(right)
		queue = append(queue, left, right)
	}
	for i, p := range finished {
		for v := range p.members {
			res.Assignment[v] = i
		}
		res.EstimatedStorage += p.nR
		res.EstimatedTotalCheckout += p.nR * int64(p.nV)
	}
	return res, nil
}

type legacySubtreeStats struct {
	nV int
	nR int64
}

func legacyPickSplitEdge(t *vgraph.Tree, p *legacyPart, delta float64) (vgraph.VersionID, bool) {
	stats := legacyComputeSubtreeStats(t, p)
	threshold := delta * float64(p.nR)
	candidates := make([]vgraph.VersionID, 0, len(p.members))
	for v := range p.members {
		if v == p.root {
			continue
		}
		candidates = append(candidates, v)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })

	var best vgraph.VersionID
	bestVDiff := math.MaxFloat64
	bestRDiff := math.MaxFloat64
	found := false
	for _, v := range candidates {
		if float64(t.Weight[v]) > threshold {
			continue
		}
		sub := stats[v]
		r2 := sub.nR
		r1 := p.nR - r2 + t.Weight[v]
		vDiff := math.Abs(float64(p.nV) - 2*float64(sub.nV))
		rDiff := math.Abs(float64(r1) - float64(r2))
		if !found || vDiff < bestVDiff || (vDiff == bestVDiff && rDiff < bestRDiff) {
			found = true
			best, bestVDiff, bestRDiff = v, vDiff, rDiff
		}
	}
	return best, found
}

func legacyComputeSubtreeStats(t *vgraph.Tree, p *legacyPart) map[vgraph.VersionID]legacySubtreeStats {
	stats := make(map[vgraph.VersionID]legacySubtreeStats, len(p.members))
	type frame struct {
		v       vgraph.VersionID
		childIx int
	}
	children := func(v vgraph.VersionID) []vgraph.VersionID {
		var out []vgraph.VersionID
		for _, c := range t.Children[v] {
			if p.members[c] {
				out = append(out, c)
			}
		}
		return out
	}
	var stack []frame
	stack = append(stack, frame{v: p.root})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		kids := children(f.v)
		if f.childIx < len(kids) {
			next := kids[f.childIx]
			f.childIx++
			stack = append(stack, frame{v: next})
			continue
		}
		s := legacySubtreeStats{nV: 1, nR: t.Records[f.v]}
		for _, c := range kids {
			cs := stats[c]
			s.nV += cs.nV
			s.nR += cs.nR - t.Weight[c]
		}
		stats[f.v] = s
		stack = stack[:len(stack)-1]
	}
	return stats
}

// legacySolveStorageConstraint mirrors partition.SolveStorageConstraint's
// binary search over δ, driving the frozen map-based LyreSplit: the
// production shape of a partitioning run (Problem 5.1, γ in records).
func legacySolveStorageConstraint(t *vgraph.Tree, gamma int64) (legacyLyreSplitResult, error) {
	lo := legacyMinDelta(t)
	hi := 1.0
	const maxIter = 40
	best, err := legacyLyreSplit(t, lo)
	if err != nil {
		return legacyLyreSplitResult{}, err
	}
	for i := 0; i < maxIter; i++ {
		mid := (lo + hi) / 2
		res, err := legacyLyreSplit(t, mid)
		if err != nil {
			return legacyLyreSplitResult{}, err
		}
		if res.EstimatedStorage <= gamma {
			best = res
			lo = mid
			if float64(res.EstimatedStorage) >= 0.99*float64(gamma) {
				break
			}
		} else {
			hi = mid
		}
		if hi-lo < 1e-9 {
			break
		}
	}
	return best, nil
}

func legacyMinDelta(t *vgraph.Tree) float64 {
	r := t.DistinctRecords()
	v := int64(t.NumVersions())
	e := t.TotalBipartiteEdges()
	if r == 0 || v == 0 {
		return 1
	}
	d := float64(e) / (float64(r) * float64(v))
	if d > 1 {
		return 1
	}
	return d
}

// legacyPartitionCopies materializes frozen row-backed copies of the tables
// backing the sampled versions' checkouts (done once, outside any timed
// region, so before-side measurements pay the legacy per-row work only).
func legacyPartitionCopies(db *relstore.Database, m interface {
	PartitionTableName(vgraph.VersionID) string
}, sample []vgraph.VersionID) (map[string]*legacyRowTable, error) {
	out := make(map[string]*legacyRowTable)
	for _, v := range sample {
		name := m.PartitionTableName(v)
		if _, ok := out[name]; ok {
			continue
		}
		data, ok := db.Table(name)
		if !ok {
			return nil, fmt.Errorf("benchmark: missing partition table for version %d", v)
		}
		out[name] = newLegacyRowTable(data)
	}
	return out, nil
}

// legacyCheckout replays the pre-recset, pre-columnar checkout
// materialization against a frozen row-backed copy of the version's backing
// table: build a map[int64]struct{} from the rid list, scan the rows probing
// it, deep-Clone every matching row, and build a string-keyed staging index
// — the exact per-row work Checkout used to do.
func legacyCheckout(data *legacyRowTable, rids []vgraph.RecordID) (*legacyRowTable, error) {
	ridIdx := data.schema.ColumnIndex("rid")
	if ridIdx < 0 {
		return nil, fmt.Errorf("benchmark: legacy table has no rid column")
	}
	set := make(map[int64]struct{}, len(rids))
	for _, r := range rids {
		set[int64(r)] = struct{}{}
	}
	out := &legacyRowTable{schema: data.schema}
	index := make(map[string]int, len(rids))
	for _, r := range data.rows {
		if _, ok := set[r[ridIdx].AsInt()]; ok {
			nr := r.Clone()
			index[strconv.FormatInt(nr[ridIdx].AsInt(), 10)] = len(out.rows)
			out.rows = append(out.rows, nr)
		}
	}
	if len(index) == 0 && len(rids) > 0 {
		return nil, fmt.Errorf("benchmark: legacy checkout matched no rows")
	}
	return out, nil
}

// legacyCommitPlan is what the frozen commit diff decides for one commit:
// the new version's rids in staged-row order and the records it creates.
type legacyCommitPlan struct {
	RIDs       []vgraph.RecordID
	NewRecords []cvd.CommitRecord
}

// legacyBuildCommit freezes cvd.buildCommit as it was before the content
// index: evolve the schema, render every parent record as a \x1f-joined
// string key into a map, then look up each staged row's key — O(parent)
// string building per commit. It plans the commit of rows (in rowSchema
// order) on top of st, the CVD's state just before the commit, and leaves
// st untouched.
func legacyBuildCommit(st *cvd.PersistentState, parents []vgraph.VersionID, rows []relstore.Row, rowSchema relstore.Schema) (legacyCommitPlan, error) {
	schema, err := legacyEvolveSchema(st.Schema, rowSchema)
	if err != nil {
		return legacyCommitPlan{}, err
	}
	width := len(schema.Columns)
	contentKey := func(r relstore.Row) string {
		var b strings.Builder
		for i := 0; i < width; i++ {
			if i > 0 {
				b.WriteByte('\x1f')
			}
			if i < len(r) {
				b.WriteString(r[i].AsString())
			}
		}
		return b.String()
	}
	records := make(map[vgraph.RecordID]relstore.Row, len(st.Records))
	for _, rec := range st.Records {
		records[rec.RID] = rec.Row
	}
	var plan legacyCommitPlan
	parentByKey := make(map[string]vgraph.RecordID)
	for _, p := range parents {
		for _, vs := range st.RecordSets {
			if vs.Version != p {
				continue
			}
			for _, rid := range vgraph.RecordIDs(vs.Set) {
				key := contentKey(records[rid])
				if _, exists := parentByKey[key]; !exists {
					parentByKey[key] = rid
				}
			}
		}
	}
	nextRID := st.NextRID
	seenRID := make(map[vgraph.RecordID]struct{}, len(rows))
	for _, r := range rows {
		if len(r) != len(rowSchema.Columns) {
			return legacyCommitPlan{}, fmt.Errorf("row has %d values but schema has %d columns", len(r), len(rowSchema.Columns))
		}
		aligned := make(relstore.Row, width)
		for j, col := range rowSchema.Columns {
			i := schema.ColumnIndex(col.Name)
			if i < 0 {
				return legacyCommitPlan{}, fmt.Errorf("column %q not in CVD schema after evolution", col.Name)
			}
			aligned[i] = r[j]
		}
		key := contentKey(aligned)
		if rid, ok := parentByKey[key]; ok {
			if _, dup := seenRID[rid]; dup {
				continue // identical duplicate row within the staged table
			}
			seenRID[rid] = struct{}{}
			plan.RIDs = append(plan.RIDs, rid)
			continue
		}
		rid := nextRID
		nextRID++
		seenRID[rid] = struct{}{}
		plan.RIDs = append(plan.RIDs, rid)
		plan.NewRecords = append(plan.NewRecords, cvd.CommitRecord{RID: rid, Row: aligned})
	}
	return plan, nil
}

// legacyEvolveSchema is the single-pool schema merge buildCommit ran first:
// new attributes are appended, conflicting types generalized.
func legacyEvolveSchema(current, incoming relstore.Schema) (relstore.Schema, error) {
	merged := current.Clone()
	for _, col := range incoming.Columns {
		if col.Name == "rid" {
			continue
		}
		i := merged.ColumnIndex(col.Name)
		if i < 0 {
			var err error
			if merged, err = merged.WithColumn(col); err != nil {
				return relstore.Schema{}, err
			}
			continue
		}
		merged.Columns[i].Type = relstore.GeneralizeType(merged.Columns[i].Type, col.Type)
	}
	return merged, nil
}
