package relstore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/recset"
)

// Property tests for the columnar layout: FilterVec must agree with the
// row-at-a-time Filter reference on randomized schemas, operators, and
// values across every value type (nulls included), and the per-column
// copy-on-write sharing must be race-free under concurrent readers and
// mutating sharers (run with -race).

var propOps = []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE}

// randomValue draws a value of any type; typ < 0 draws a random type.
// Nulls appear regardless of the column's declared type, and a small
// fraction of cells deliberately carry a type other than the declared one
// (the heterogeneous columns schema evolution can produce).
func randomValue(rng *rand.Rand, typ ValueType) Value {
	if typ < 0 || rng.Intn(10) == 0 {
		typ = ValueType(rng.Intn(5) + 1) // TypeInt..TypeIntArray
	}
	if rng.Intn(6) == 0 {
		return Null()
	}
	switch typ {
	case TypeInt:
		return Int(int64(rng.Intn(21) - 10))
	case TypeFloat:
		return Float(float64(rng.Intn(21)-10) / 2)
	case TypeString:
		return Str(fmt.Sprintf("s%02d", rng.Intn(20)))
	case TypeBool:
		return Bool(rng.Intn(2) == 0)
	case TypeIntArray:
		a := make([]int64, rng.Intn(3))
		for i := range a {
			a[i] = int64(rng.Intn(5))
		}
		return IntArray(a)
	default:
		return Null()
	}
}

func randomSchemaTable(rng *rand.Rand) *Table {
	ncols := rng.Intn(4) + 1
	cols := make([]Column, ncols)
	for i := range cols {
		cols[i] = Column{Name: fmt.Sprintf("c%d", i), Type: ValueType(rng.Intn(5) + 1)}
	}
	t := NewTable("prop", MustSchema(cols))
	nrows := rng.Intn(80)
	for i := 0; i < nrows; i++ {
		r := make(Row, ncols)
		for j := range r {
			r[j] = randomValue(rng, cols[j].Type)
		}
		t.MustInsert(r)
	}
	return t
}

// TestFilterVecMatchesFilterProperty: for random tables, columns, operators
// and comparison values, the vectorized scan selects exactly the rows the
// row-at-a-time reference predicate accepts.
func TestFilterVecMatchesFilterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		tbl := randomSchemaTable(rng)
		ci := rng.Intn(len(tbl.Schema.Columns))
		col := tbl.Schema.Columns[ci]
		op := propOps[rng.Intn(len(propOps))]
		val := randomValue(rng, ValueType(-1))

		sel, err := tbl.FilterVec(col.Name, op, val)
		if err != nil {
			t.Fatalf("trial %d: FilterVec: %v", trial, err)
		}
		var want Selection
		for i := 0; i < tbl.Len(); i++ {
			if op.Eval(tbl.At(i, ci).Compare(val)) {
				want = append(want, int32(i))
			}
		}
		if len(sel) != len(want) {
			t.Fatalf("trial %d (%s %s %v): FilterVec selected %d rows, reference %d",
				trial, col.Name, op, val, len(sel), len(want))
		}
		for k := range sel {
			if sel[k] != want[k] {
				t.Fatalf("trial %d: selection mismatch at %d: %d vs %d", trial, k, sel[k], want[k])
			}
		}
		// The Filter (materialized rows) reference agrees too.
		rows := tbl.Filter(func(r Row) bool { return op.Eval(r[ci].Compare(val)) })
		if len(rows) != len(sel) {
			t.Fatalf("trial %d: Filter returned %d rows, FilterVec %d", trial, len(rows), len(sel))
		}
	}
}

// TestFilterVecAllMatchesChainedFilter: the compiled multi-predicate form
// equals applying each predicate in sequence row at a time.
func TestFilterVecAllMatchesChainedFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		tbl := randomSchemaTable(rng)
		npred := rng.Intn(3) + 1
		preds := make([]ColPred, npred)
		idxs := make([]int, npred)
		for k := range preds {
			ci := rng.Intn(len(tbl.Schema.Columns))
			idxs[k] = ci
			preds[k] = ColPred{
				Col:   tbl.Schema.Columns[ci].Name,
				Op:    propOps[rng.Intn(len(propOps))],
				Value: randomValue(rng, ValueType(-1)),
			}
		}
		sel, err := tbl.FilterVecAll(preds)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var want Selection
		for i := 0; i < tbl.Len(); i++ {
			ok := true
			for k, p := range preds {
				if !p.Op.Eval(tbl.At(i, idxs[k]).Compare(p.Value)) {
					ok = false
					break
				}
			}
			if ok {
				want = append(want, int32(i))
			}
		}
		if len(sel) != len(want) {
			t.Fatalf("trial %d: FilterVecAll selected %d rows, reference %d", trial, len(sel), len(want))
		}
		for k := range sel {
			if sel[k] != want[k] {
				t.Fatalf("trial %d: mismatch at %d", trial, k)
			}
		}
	}
}

// TestGatherRoundTrip: gathering a selection and reading it back yields
// exactly the selected rows, whether the gather shared (full cover) or
// copied (subset).
func TestGatherRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		tbl := randomSchemaTable(rng)
		var sel Selection
		if trial%3 == 0 {
			for i := 0; i < tbl.Len(); i++ {
				sel = append(sel, int32(i)) // full cover: the sharing path
			}
		} else {
			for i := 0; i < tbl.Len(); i++ {
				if rng.Intn(2) == 0 {
					sel = append(sel, int32(i))
				}
			}
		}
		out := tbl.GatherInto("g", sel)
		if out.Len() != len(sel) {
			t.Fatalf("gathered %d rows, want %d", out.Len(), len(sel))
		}
		for k, i := range sel {
			a, b := out.RowAt(k), tbl.RowAt(int(i))
			for j := range a {
				if !a[j].Equal(b[j]) {
					t.Fatalf("trial %d: cell (%d,%d) %v != %v", trial, k, j, a[j], b[j])
				}
			}
		}
	}
}

// TestSelectRIDSetMatchesProbe: the rid-column probe equals a row-level
// membership filter.
func TestSelectRIDSetMatchesProbe(t *testing.T) {
	tbl := NewTable("rids", MustSchema([]Column{
		{Name: "rid", Type: TypeInt},
		{Name: "v", Type: TypeString},
	}, "rid"))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		tbl.MustInsert(Row{Int(int64(i)), Str(fmt.Sprintf("v%d", i))})
	}
	set := recset.New()
	for i := 0; i < 120; i++ {
		set.Add(int64(rng.Intn(700)))
	}
	sel, err := tbl.SelectRIDSet("rid", set)
	if err != nil {
		t.Fatal(err)
	}
	var want Selection
	for i := 0; i < tbl.Len(); i++ {
		if set.Contains(tbl.IntAt(i, 0)) {
			want = append(want, int32(i))
		}
	}
	if len(sel) != len(want) {
		t.Fatalf("SelectRIDSet found %d rows, want %d", len(sel), len(want))
	}
	for k := range sel {
		if sel[k] != want[k] {
			t.Fatalf("mismatch at %d", k)
		}
	}
}

// TestProbeRIDSetMatchesScan: on a table whose rows are not in rid order,
// the rid-index probe selects exactly the scan's positions (ascending), for
// sets small and large relative to the table; SelectRIDSet takes the probe
// only below the share cut-off, and FilterVecAllIn over the probed rows
// equals the whole-table filter restricted to the set.
func TestProbeRIDSetMatchesScan(t *testing.T) {
	tbl := NewTable("rids", MustSchema([]Column{
		{Name: "rid", Type: TypeInt},
		{Name: "v", Type: TypeInt},
	}, "rid"))
	rng := rand.New(rand.NewSource(5))
	for _, rid := range rng.Perm(800) {
		tbl.MustInsert(Row{Int(int64(rid)), Int(int64(rng.Intn(100)))})
	}
	preds := []ColPred{{Col: "v", Op: CmpLT, Value: Int(30)}}
	whole, err := tbl.FilterVecAll(preds)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 20, 99, 100, 400, 900} {
		set := recset.New()
		for i := 0; i < n; i++ {
			set.Add(int64(rng.Intn(1000))) // some rids are absent from the table
		}
		scan, err := tbl.ScanRIDSet("rid", set)
		if err != nil {
			t.Fatal(err)
		}
		probe, err := tbl.ProbeRIDSet("rid", set)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(probe) != fmt.Sprint(scan) {
			t.Fatalf("n=%d: probe %v, scan %v", n, probe, scan)
		}
		if got, want := tbl.ProbesRIDIndex("rid", set.Len()), set.Len()*8 < int64(tbl.Len()); got != want {
			t.Errorf("n=%d (|set| %d): ProbesRIDIndex = %v, want %v", n, set.Len(), got, want)
		}
		filtered, err := tbl.FilterVecAllIn(probe, preds)
		if err != nil {
			t.Fatal(err)
		}
		var want Selection
		for _, p := range whole {
			if set.Contains(tbl.IntAt(int(p), 0)) {
				want = append(want, p)
			}
		}
		if fmt.Sprint(filtered) != fmt.Sprint(want) {
			t.Fatalf("n=%d: filter over probe %v, whole-table filter %v", n, filtered, want)
		}
	}
	noIndex := NewTable("plain", MustSchema([]Column{{Name: "rid", Type: TypeInt}}))
	noIndex.AppendRow(Row{Int(1)})
	if noIndex.ProbesRIDIndex("rid", 0) {
		t.Error("a table without a rid index must scan")
	}
	if _, err := noIndex.ProbeRIDSet("rid", recset.New()); err == nil {
		t.Error("ProbeRIDSet without a rid index should fail")
	}
}

// TestColumnCOWConcurrentSharers: many tables share one source's column
// backing; each sharer mutates its own copy concurrently while readers scan
// the source. Copy-on-write must keep the source bit-identical and the run
// race-free (-race).
func TestColumnCOWConcurrentSharers(t *testing.T) {
	src := NewTable("src", MustSchema([]Column{
		{Name: "rid", Type: TypeInt},
		{Name: "name", Type: TypeString},
		{Name: "score", Type: TypeFloat},
	}, "rid"))
	const n = 400
	for i := 0; i < n; i++ {
		src.MustInsert(Row{Int(int64(i)), Str(fmt.Sprintf("g%03d", i)), Float(float64(i) / 3)})
	}
	full := make(Selection, n)
	for i := range full {
		full[i] = int32(i)
	}

	const sharers = 8
	var wg sync.WaitGroup
	for g := 0; g < sharers; g++ {
		stage := src.GatherInto(fmt.Sprintf("stage%d", g), full)
		if stage.SharedColumns() == 0 {
			t.Fatal("full-cover gather should share column backing")
		}
		wg.Add(1)
		go func(g int, stage *Table) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				stage.Set(i%n, 2, Float(float64(g*1000+i)))
			}
			if err := stage.AddColumn(Column{Name: "extra", Type: TypeInt}); err != nil {
				t.Error(err)
			}
		}(g, stage)
	}
	// Concurrent readers of the shared source.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if sel, err := src.FilterVec("score", CmpGT, Float(50)); err != nil || len(sel) == 0 {
					t.Errorf("FilterVec under sharing: sel=%d err=%v", len(sel), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Source unchanged.
	for i := 0; i < n; i++ {
		if src.At(i, 2).AsFloat() != float64(i)/3 {
			t.Fatalf("source mutated at row %d: %v", i, src.At(i, 2))
		}
	}
	if src.Len() != n || len(src.Schema.Columns) != 3 {
		t.Fatalf("source shape changed: %d rows, %d cols", src.Len(), len(src.Schema.Columns))
	}
}

// TestAppendFromMaintainsIndex: bulk column-wise appends keep the unique
// index consistent and reject duplicates.
func TestAppendFromMaintainsIndex(t *testing.T) {
	schema := MustSchema([]Column{{Name: "rid", Type: TypeInt}, {Name: "v", Type: TypeInt}}, "rid")
	src := NewTable("src", schema)
	for i := 0; i < 10; i++ {
		src.MustInsert(Row{Int(int64(i)), Int(int64(i * 2))})
	}
	dst := NewTable("dst", schema.Clone())
	if err := dst.AppendFrom(src, Selection{1, 3, 5}); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 3 {
		t.Fatalf("Len = %d, want 3", dst.Len())
	}
	row, ok := dst.LookupIndex(Int(3))
	if !ok || row[1].AsInt() != 6 {
		t.Fatalf("index lookup after AppendFrom: %v %v", row, ok)
	}
	if err := dst.AppendFrom(src, Selection{3}); err == nil {
		t.Fatal("duplicate key via AppendFrom should error")
	}
	// A failed append must leave no phantom index entries: rid 7 appeared in
	// the same rejected batch as the duplicate, so looking it up afterwards
	// must miss cleanly instead of pointing past the end of the table.
	if err := dst.AppendFrom(src, Selection{7, 3}); err == nil {
		t.Fatal("batch with duplicate key should error")
	}
	if _, ok := dst.LookupIndex(Int(7)); ok {
		t.Fatal("rejected batch leaked an index entry for rid 7")
	}
	// Duplicates within one selection are rejected too.
	if err := dst.AppendFrom(src, Selection{8, 8}); err == nil {
		t.Fatal("intra-selection duplicate should error")
	}
	if _, ok := dst.LookupIndex(Int(8)); ok {
		t.Fatal("rejected intra-dup batch leaked an index entry")
	}
	if dst.Len() != 3 {
		t.Fatalf("Len after rejected batches = %d, want 3", dst.Len())
	}
}
