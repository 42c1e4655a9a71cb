package benchmark

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cvd"
	"repro/internal/recset"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// The commit-equivalence suite: random edit scripts run against a CVD, and
// every commit must assign exactly the rids and create exactly the records
// the frozen string-key diff (legacyBuildCommit) plans for the same state.
// Strings holding the old key separator \x1f are left out on purpose: the
// content index compares cells, so those rows no longer collide.

// commitScript drives one random edit script against one CVD.
type commitScript struct {
	t    testing.TB
	rng  *rand.Rand
	c    *cvd.CVD
	db   *relstore.Database
	kind cvd.ModelKind
	pk   bool
	seq  int
	// probes and scans count the reads resolved by a rid-index probe and by
	// a scan, so a test can require that both paths ran.
	probes, scans int
}

var scriptStrings = []string{"", "1", "2", "x", "y", "true"}

// value draws a cell from a small domain whose text renderings collide
// across types: Int 1 and "1", NULL and "", Bool true and "true".
func (s *commitScript) value() relstore.Value {
	switch s.rng.Intn(10) {
	case 0:
		return relstore.Null()
	case 1, 2:
		return relstore.Str(scriptStrings[s.rng.Intn(len(scriptStrings))])
	case 3:
		return relstore.Float([]float64{0.5, 1, math.Copysign(0, -1)}[s.rng.Intn(3)])
	case 4:
		return relstore.Bool(s.rng.Intn(2) == 0)
	default:
		return relstore.Int(int64(s.rng.Intn(4)))
	}
}

func (s *commitScript) key(i int) relstore.Value {
	return relstore.Str(fmt.Sprintf("k%d", i))
}

// runCommitScript initializes a CVD and runs steps random commits against
// it, checking each against the frozen diff and the reads after it.
func runCommitScript(t testing.TB, seed int64, steps int, kind cvd.ModelKind) *commitScript {
	rng := rand.New(rand.NewSource(seed))
	s := &commitScript{t: t, rng: rng, db: relstore.NewDatabase("equiv"), kind: kind, pk: rng.Intn(2) == 0}
	cols := []relstore.Column{
		{Name: "k", Type: relstore.TypeString},
		{Name: "a", Type: relstore.TypeInt},
		{Name: "b", Type: relstore.TypeInt},
	}
	var schema relstore.Schema
	if s.pk {
		schema = relstore.MustSchema(cols, "k")
	} else {
		schema = relstore.MustSchema(cols)
	}
	var rows []relstore.Row
	for i, n := 0, 1+rng.Intn(12); i < n; i++ {
		k := s.key(rng.Intn(6))
		if s.pk {
			k = s.key(i)
		}
		rows = append(rows, relstore.Row{k, s.value(), s.value()})
	}
	if !s.pk && rng.Intn(2) == 0 {
		rows = append(rows, rows[0]) // a duplicate row in the initial version
	}
	pre := &cvd.PersistentState{Schema: schema, NextRID: 1}
	plan, err := legacyBuildCommit(pre, nil, rows, schema)
	if err != nil {
		t.Fatalf("legacy init plan: %v", err)
	}
	s.c, err = cvd.Init(s.db, "equiv", schema, rows, cvd.Options{Model: kind})
	if err != nil {
		t.Fatalf("init: %v", err)
	}
	s.check(pre, plan, 1)
	for step := 0; step < steps; step++ {
		if rng.Intn(10) < 6 {
			s.commitTable()
		} else {
			s.commitRows()
		}
	}
	return s
}

// state exports the CVD's persistent state; the export shares only data
// commits never mutate, so it stays valid across later commits.
func (s *commitScript) state() *cvd.PersistentState {
	s.c.LockShared()
	defer s.c.UnlockShared()
	return s.c.ExportState()
}

func (s *commitScript) versions() []vgraph.VersionID { return s.c.Versions() }

// parents picks one version, or two distinct ones for a merge.
func (s *commitScript) parents() []vgraph.VersionID {
	vs := s.versions()
	a := vs[s.rng.Intn(len(vs))]
	if len(vs) > 1 && s.rng.Intn(10) < 3 {
		b := vs[s.rng.Intn(len(vs))]
		for b == a {
			b = vs[s.rng.Intn(len(vs))]
		}
		return []vgraph.VersionID{a, b}
	}
	return []vgraph.VersionID{a}
}

// parentRecord returns the content of a random record of a random parent
// (nil when the parents are empty), for edits back to a parent's content.
func (s *commitScript) parentRecord(parents []vgraph.VersionID) (vgraph.RecordID, relstore.Row) {
	rids := s.c.RecordsOf(parents[s.rng.Intn(len(parents))])
	if len(rids) == 0 {
		return 0, nil
	}
	rid := rids[s.rng.Intn(len(rids))]
	row, _ := s.c.RecordContent(rid)
	return rid, row
}

// commitTable checks parents out, edits the staging table and commits it.
func (s *commitScript) commitTable() {
	s.seq++
	parents := s.parents()
	name := fmt.Sprintf("stage%d", s.seq)
	tab, err := s.c.Checkout(parents, name)
	if err != nil {
		s.t.Fatalf("checkout %v: %v", parents, err)
	}
	ridCol := tab.Schema.ColumnIndex("rid")
	for edits := s.rng.Intn(6); edits > 0; edits-- {
		n := tab.Len()
		switch op := s.rng.Intn(10); {
		case op == 0 && n > 0: // edit a cell
			tab.Set(s.rng.Intn(n), 1+s.rng.Intn(len(tab.Schema.Columns)-1), s.value())
		case op == 1: // delete rows
			keep := 1 + s.rng.Intn(10)
			tab.DeleteWhere(func(relstore.Row) bool { return s.rng.Intn(10) >= keep })
		case op == 2 && n > 0: // edit a row back to a parent's content
			rid, rec := s.parentRecord(parents)
			if rec == nil {
				continue
			}
			i := s.rng.Intn(n)
			schema := s.c.Schema()
			for j, col := range schema.Columns {
				if k := tab.Schema.ColumnIndex(col.Name); k >= 0 && j < len(rec) {
					tab.Set(i, k, rec[j])
				}
			}
			if s.rng.Intn(2) == 0 {
				tab.Set(i, ridCol, relstore.Int(int64(rid)))
			}
		case op == 3 && n > 0: // duplicate a row, with or without its rid
			r := tab.RowAt(s.rng.Intn(n)).Clone()
			if s.rng.Intn(2) == 0 {
				r[ridCol] = relstore.Null()
			}
			tab.AppendRow(r)
		case op == 4 && n > 0: // forge or stale rid
			forged := []relstore.Value{
				relstore.Int(s.rng.Int63n(int64(s.c.NumRecords()) + 3)),
				relstore.Null(),
				relstore.Str("1"),
			}[s.rng.Intn(3)]
			tab.Set(s.rng.Intn(n), ridCol, forged)
		case op == 5: // a new row
			r := make(relstore.Row, len(tab.Schema.Columns))
			for j := range r {
				r[j] = s.value()
			}
			r[ridCol] = relstore.Null()
			tab.AppendRow(r)
		case op == 6: // schema evolution through the staging table
			col := relstore.Column{Name: fmt.Sprintf("c%d_%d", s.seq, edits), Type: relstore.TypeInt}
			if err := tab.AddColumn(col); err != nil {
				s.t.Fatal(err)
			}
			if n > 0 {
				tab.Set(s.rng.Intn(n), len(tab.Schema.Columns)-1, relstore.Int(int64(s.rng.Intn(3))))
			}
		case op == 7: // Int -> String generalization of a staged column
			if err := tab.AlterColumnType("a", relstore.TypeString); err != nil {
				s.t.Fatal(err)
			}
		}
	}
	// The legacy path committed the projection of the data columns.
	var dataCols []relstore.Column
	for _, col := range tab.Schema.Columns {
		if col.Name != "rid" {
			dataCols = append(dataCols, col)
		}
	}
	rowSchema := relstore.MustSchema(dataCols)
	rows := make([]relstore.Row, tab.Len())
	for i := range rows {
		r := tab.RowAt(i)
		rows[i] = append(r[:ridCol:ridCol], r[ridCol+1:]...)
	}
	pre := s.state()
	plan, err := legacyBuildCommit(pre, parents, rows, rowSchema)
	if err != nil {
		s.t.Fatalf("legacy plan: %v", err)
	}
	v, err := s.c.CommitTable(name, "m", "a")
	if err != nil {
		s.t.Fatalf("commit table from %v: %v", parents, err)
	}
	s.check(pre, plan, v)
}

// commitRows commits programmatic rows: parent records (possibly retyped),
// new and duplicate rows, under a schema that may reorder, drop, add or
// generalize columns.
func (s *commitScript) commitRows() {
	s.seq++
	parents := s.parents()
	schema := s.c.Schema()
	cols := append([]relstore.Column(nil), schema.Columns...)
	s.rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	switch s.rng.Intn(4) {
	case 0: // drop a non-key column
		for i, col := range cols {
			if col.Name != "k" {
				cols = append(cols[:i:i], cols[i+1:]...)
				break
			}
		}
	case 1: // add a column
		cols = append(cols, relstore.Column{Name: fmt.Sprintf("r%d", s.seq), Type: relstore.TypeInt})
	case 2: // generalize a column to String
		for i := range cols {
			if cols[i].Name == "b" {
				cols[i].Type = relstore.TypeString
			}
		}
	}
	var rowSchema relstore.Schema
	if s.pk {
		rowSchema = relstore.MustSchema(cols, "k")
	} else {
		rowSchema = relstore.MustSchema(cols)
	}
	var rows []relstore.Row
	seenKey := make(map[string]bool)
	for n := s.rng.Intn(10); n > 0; n-- {
		_, rec := s.parentRecord(parents)
		r := make(relstore.Row, len(cols))
		for j, col := range cols {
			ci := schema.ColumnIndex(col.Name)
			switch {
			case rec != nil && ci >= 0 && ci < len(rec) && s.rng.Intn(8) > 0:
				r[j] = rec[ci]
				if col.Type == relstore.TypeString && !r[j].IsNull() {
					r[j] = relstore.Str(r[j].AsString())
				}
			case col.Name == "k":
				r[j] = s.key(s.rng.Intn(8))
			default:
				r[j] = s.value()
			}
		}
		if s.pk {
			k := r[rowSchema.ColumnIndex("k")].AsString()
			if seenKey[k] {
				continue
			}
			seenKey[k] = true
		}
		rows = append(rows, r)
		if !s.pk && s.rng.Intn(4) == 0 {
			rows = append(rows, r)
		}
	}
	pre := s.state()
	plan, err := legacyBuildCommit(pre, parents, rows, rowSchema)
	if err != nil {
		s.t.Fatalf("legacy plan: %v", err)
	}
	v, err := s.c.Commit(parents, rows, rowSchema, "m", "a")
	if err != nil {
		s.t.Fatalf("commit rows to %v: %v", parents, err)
	}
	s.check(pre, plan, v)
}

// check compares commit v, made on top of state pre, with the frozen plan,
// then checks reads of v against their scan-path references.
func (s *commitScript) check(pre *cvd.PersistentState, plan legacyCommitPlan, v vgraph.VersionID) {
	t := s.t
	post := s.state()
	var created []cvd.PersistedRecord
	for _, rec := range post.Records {
		if rec.RID >= pre.NextRID {
			created = append(created, rec)
		}
	}
	if len(created) != len(plan.NewRecords) || post.NextRID != pre.NextRID+vgraph.RecordID(len(plan.NewRecords)) {
		t.Fatalf("v%d: created %d records (next rid %d -> %d), legacy creates %d", v, len(created), pre.NextRID, post.NextRID, len(plan.NewRecords))
	}
	for i, want := range plan.NewRecords {
		got := created[i]
		if got.RID != want.RID || !identicalRows(got.Row, want.Row) {
			t.Fatalf("v%d: new record %d = %d %v, legacy %d %v", v, i, got.RID, got.Row, want.RID, want.Row)
		}
	}
	rids := make([]int64, len(plan.RIDs))
	for i, r := range plan.RIDs {
		rids[i] = int64(r)
	}
	var set *recset.Set
	for _, vs := range post.RecordSets {
		if vs.Version == v {
			set = vs.Set
		}
	}
	if set.Len() != int64(len(rids)) || !recset.Equal(set, recset.FromSlice(rids)) {
		t.Fatalf("v%d: records %v, legacy %v", v, vgraph.RecordIDs(set), plan.RIDs)
	}
	if s.kind == cvd.TablePerVersion {
		// The version table keeps the commit's rid order.
		tab := s.checkout([]vgraph.VersionID{v})
		for i := 0; i < tab.Len(); i++ {
			if got := vgraph.RecordID(tab.IntAt(i, 0)); got != plan.RIDs[i] {
				t.Fatalf("v%d: rid order %d at %d, legacy %d", v, got, i, plan.RIDs[i])
			}
		}
		return
	}
	s.checkReads(v)
}

func (s *commitScript) checkout(vs []vgraph.VersionID) *relstore.Table {
	s.seq++
	name := fmt.Sprintf("read%d", s.seq)
	tab, err := s.c.Checkout(vs, name)
	if err != nil {
		s.t.Fatalf("checkout %v: %v", vs, err)
	}
	s.c.DiscardCheckout(name)
	return tab
}

// checkReads checks that a checkout of v equals the rid scan of its
// backing table, that the index probe selects the same rows, and that the
// pushed-down select answers like the row-at-a-time one.
func (s *commitScript) checkReads(v vgraph.VersionID) {
	t := s.t
	m, err := s.c.Rlist()
	if err != nil {
		t.Fatal(err)
	}
	data, ok := s.db.Table(m.PartitionTableName(v))
	if !ok {
		t.Fatalf("v%d: no backing table", v)
	}
	var rids []int64
	for _, r := range s.c.RecordsOf(v) {
		rids = append(rids, int64(r))
	}
	set := recset.FromSorted(rids)
	scan, err := data.ScanRIDSet("rid", set)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := data.ProbeRIDSet("rid", set)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(scan) != fmt.Sprint(probe) {
		t.Fatalf("v%d: probe selects %v, scan %v", v, probe, scan)
	}
	if data.ProbesRIDIndex("rid", set.Len()) {
		s.probes++
	} else {
		s.scans++
	}
	got, want := s.checkout([]vgraph.VersionID{v}), data.GatherInto("want", scan)
	if got.Len() != want.Len() {
		t.Fatalf("v%d: checkout has %d rows, scan %d", v, got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if !identicalRows(got.RowAt(i), want.RowAt(i)) {
			t.Fatalf("v%d: checkout row %d = %v, scan %v", v, i, got.RowAt(i), want.RowAt(i))
		}
	}
	// Select: the predicate evaluated on the version's rows found through the
	// rid index must select what the whole-table scan selects, and the
	// pushed-down ScanVersions must answer with exactly those records.
	vs := []vgraph.VersionID{v}
	if all := s.versions(); s.rng.Intn(2) == 0 {
		vs = append(vs, all[s.rng.Intn(len(all))])
	}
	union := recset.New()
	for _, u := range vs {
		for _, r := range s.c.RecordsOf(u) {
			union.Add(int64(r))
		}
	}
	preds := []relstore.ColPred{{Col: "a", Op: relstore.CmpLT, Value: relstore.Int(2)}}
	whole, err := data.FilterVecAll(preds)
	if err != nil {
		t.Fatal(err)
	}
	probed, err := data.ProbeRIDSet("rid", union)
	if err != nil {
		t.Fatal(err)
	}
	if probed, err = data.FilterVecAllIn(probed, preds); err != nil {
		t.Fatal(err)
	}
	match := s.ridSet(data, whole)
	if !recset.Equal(recset.And(match, union), s.ridSet(data, probed)) {
		t.Fatalf("versions %v: probed select %v, scan %v", vs, s.ridSet(data, probed).Slice(), recset.And(match, union).Slice())
	}
	pred, err := s.c.NamedPredicate("a", "<", relstore.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.c.ScanVersions(vs, pred, 0)
	if err != nil {
		t.Fatal(err)
	}
	var expect []cvd.VersionedRow
	for _, u := range vs {
		for _, rid := range vgraph.RecordIDs(recset.And(s.c.Bipartite().RecordSet(u), match)) {
			row, _ := s.c.RecordContent(rid)
			expect = append(expect, cvd.VersionedRow{Version: u, RID: rid, Row: row})
		}
	}
	if len(rows) != len(expect) {
		t.Fatalf("versions %v: select found %d rows, scan %d", vs, len(rows), len(expect))
	}
	for i := range rows {
		if rows[i].Version != expect[i].Version || rows[i].RID != expect[i].RID || !identicalRows(rows[i].Row, expect[i].Row) {
			t.Fatalf("versions %v: select row %d = %+v, scan %+v", vs, i, rows[i], expect[i])
		}
	}
}

// ridSet returns the rids at the selected positions of data.
func (s *commitScript) ridSet(data *relstore.Table, sel relstore.Selection) *recset.Set {
	rids, err := data.GatherInts("rid", sel)
	if err != nil {
		s.t.Fatal(err)
	}
	return recset.FromSlice(rids)
}

func identicalRows(a, b relstore.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Identical(b[i]) {
			return false
		}
	}
	return true
}

// TestCommitMatchesLegacy: over many random edit scripts, every commit
// assigns the same rids (in the same order) and creates the same records
// as the frozen string-key diff, and reads of every version agree between
// the index probe and the scan.
func TestCommitMatchesLegacy(t *testing.T) {
	var probes, scans int
	for seed := int64(1); seed <= 60; seed++ {
		for _, kind := range []cvd.ModelKind{cvd.SplitByRlist, cvd.TablePerVersion} {
			s := runCommitScript(t, seed, 25, kind)
			probes += s.probes
			scans += s.scans
		}
	}
	if probes == 0 || scans == 0 {
		t.Fatalf("reads took the index probe %d times and the scan %d times; want both", probes, scans)
	}
}

// FuzzCommitMatchesLegacy is TestCommitMatchesLegacy driven by the fuzzer:
// the input picks the script's seed, its length and the data model.
func FuzzCommitMatchesLegacy(f *testing.F) {
	f.Add(int64(1), uint8(12), false)
	f.Add(int64(7), uint8(30), true)
	f.Fuzz(func(t *testing.T, seed int64, steps uint8, tpv bool) {
		kind := cvd.SplitByRlist
		if tpv {
			kind = cvd.TablePerVersion
		}
		runCommitScript(t, seed, int(steps%40), kind)
	})
}
