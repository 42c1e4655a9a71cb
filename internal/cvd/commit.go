package cvd

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"strings"

	"repro/internal/recset"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// This file is the commit diff: it applies the no cross-version diff rule —
// a staged row reuses a parent's rid exactly when its content is identical —
// in O(staged rows). A staged row that still carries a parent rid and the
// unchanged cells of that record keeps the rid after a cell comparison; every
// other row is rendered into a reused buffer, hashed, and looked up in the
// persistent content index, each hit confirmed against the full content.

// cellSource is what a commit reads its staged rows from: a staging or CSV
// table in place, or the rows of a programmatic commit.
type cellSource interface {
	Len() int
	At(row, col int) relstore.Value
	Identical(row, col int, v relstore.Value) bool
}

// rowsSource adapts staged rows to cellSource.
type rowsSource []relstore.Row

func (r rowsSource) Len() int                       { return len(r) }
func (r rowsSource) At(row, col int) relstore.Value { return r[row][col] }
func (r rowsSource) Identical(row, col int, v relstore.Value) bool {
	return r[row][col].Identical(v)
}

// staged is a commit's input: src's rows, whose data cells sit in columns
// data[k] of src and are described by schema.Columns[k].
type staged struct {
	src    cellSource
	schema relstore.Schema
	data   []int
	rid    int // src column carrying checked-out rids, -1 if none
}

// stagedRows stages the rows of a programmatic commit, in rowSchema order.
func stagedRows(rows []relstore.Row, rowSchema relstore.Schema) staged {
	return stagedTable(rowsSource(rows), rowSchema)
}

// stagedTable stages every column of src, described by schema.
func stagedTable(src cellSource, schema relstore.Schema) staged {
	data := make([]int, len(schema.Columns))
	for k := range data {
		data[k] = k
	}
	return staged{src: src, schema: schema, data: data, rid: -1}
}

// stagedCheckout stages a checked-out table: its rid column is split off
// and the remaining columns, in table order, are the data (the schema a
// projection of them would have, with no primary key).
func stagedCheckout(t *relstore.Table) (staged, error) {
	in := staged{src: t, rid: -1}
	cols := make([]relstore.Column, 0, len(t.Schema.Columns))
	for j, col := range t.Schema.Columns {
		if col.Name == ridColumn {
			in.rid = j
			continue
		}
		in.data = append(in.data, j)
		cols = append(cols, col)
	}
	schema, err := relstore.NewSchema(cols)
	if err != nil {
		return staged{}, err
	}
	in.schema = schema
	return in, nil
}

// cell returns data cell k of staged row i.
func (in staged) cell(i, k int) relstore.Value { return in.src.At(i, in.data[k]) }

// rows materializes the staged rows in schema order — for the journal,
// which logs full rows. A programmatic commit's rows are returned as given.
func (in staged) rows() []relstore.Row {
	if rs, ok := in.src.(rowsSource); ok {
		return rs
	}
	out := make([]relstore.Row, in.src.Len())
	for i := range out {
		r := make(relstore.Row, len(in.data))
		for k := range r {
			r[k] = in.cell(i, k)
		}
		out[i] = r
	}
	return out
}

// appendKeyCell appends one cell of a record key: a 4-byte length, then the
// cell's text rendering (Value.AsString). The length prefix keeps any cell
// content from imitating a cell boundary.
func appendKeyCell(dst []byte, v relstore.Value) []byte {
	p := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = v.AppendString(dst)
	binary.LittleEndian.PutUint32(dst[p:], uint32(len(dst)-p-4))
	return dst
}

// recordKey appends the content key of a catalog record. Two records have
// equal keys exactly when their cells render equally once padded to a
// common width: trailing empty cells are dropped, so a record keeps its key
// when schema evolution pads it with NULLs.
func recordKey(dst []byte, r relstore.Row) []byte {
	end := len(dst)
	for _, v := range r {
		p := len(dst)
		dst = appendKeyCell(dst, v)
		if len(dst)-p > 4 {
			end = len(dst)
		}
	}
	return dst[:end]
}

// stagedKey appends the content key of staged row i, whose cells land in
// CVD columns through pos (pos[j] is the data column of CVD column j, -1
// for NULL).
func stagedKey(dst []byte, in staged, i int, pos []int) []byte {
	end := len(dst)
	for _, k := range pos {
		if k < 0 {
			dst = appendKeyCell(dst, relstore.Null())
			continue
		}
		p := len(dst)
		dst = appendKeyCell(dst, in.cell(i, k))
		if len(dst)-p > 4 {
			end = len(dst)
		}
	}
	return dst[:end]
}

// contentIndex maps the hash of each catalog record's content key to its
// rid. It is maintained as Init and Commit create records and rebuilt by
// Restore, so a commit never re-renders the parent.
type contentIndex struct {
	seed  maphash.Seed
	first map[uint64]vgraph.RecordID   // hash -> first record with it
	more  map[uint64][]vgraph.RecordID // hash -> later records with it (rare)
	// shared holds every record whose hash another record also has —
	// a superset of the records whose content is not unique.
	shared map[vgraph.RecordID]struct{}
}

func newContentIndex(capHint int) *contentIndex {
	return &contentIndex{
		seed:   maphash.MakeSeed(),
		first:  make(map[uint64]vgraph.RecordID, capHint),
		more:   make(map[uint64][]vgraph.RecordID),
		shared: make(map[vgraph.RecordID]struct{}),
	}
}

func (x *contentIndex) hash(key []byte) uint64 { return maphash.Bytes(x.seed, key) }

func (x *contentIndex) add(h uint64, rid vgraph.RecordID) {
	prev, ok := x.first[h]
	if !ok {
		x.first[h] = rid
		return
	}
	x.more[h] = append(x.more[h], rid)
	x.shared[prev] = struct{}{}
	x.shared[rid] = struct{}{}
}

// buildContentIndex indexes every catalog record (Restore's rebuild).
func buildContentIndex(records map[vgraph.RecordID]relstore.Row) *contentIndex {
	x := newContentIndex(len(records))
	var key []byte
	for rid, r := range records {
		key = recordKey(key[:0], r)
		x.add(x.hash(key), rid)
	}
	return x
}

// diff evolves the schema and assigns the staged rows their rids, creating
// catalog records for content no parent holds. Callers hold c.mu
// exclusively.
func (c *CVD) diff(parents []vgraph.VersionID, in staged) (CommitRequest, error) {
	// Single-pool schema evolution first, so content keys use the final width.
	if err := c.evolveSchema(in.schema); err != nil {
		return CommitRequest{}, err
	}
	pos := make([]int, len(c.schema.Columns))
	for j := range pos {
		pos[j] = -1
	}
	for k, col := range in.schema.Columns {
		j := c.schema.ColumnIndex(col.Name)
		if j < 0 {
			return CommitRequest{}, fmt.Errorf("cvd: %s: column %q not in CVD schema after evolution", c.name, col.Name)
		}
		pos[j] = k
	}
	req := CommitRequest{
		Version:    c.nextVID,
		Parents:    append([]vgraph.VersionID(nil), parents...),
		ParentRIDs: make(map[vgraph.VersionID][]vgraph.RecordID, len(parents)),
		Lookup:     c.lookupRecord,
	}
	sets := make([]*recset.Set, len(parents))
	for k, p := range parents {
		sets[k] = c.bip.RecordSet(p)
		req.ParentRIDs[p] = c.recordsOfLocked(p)
	}
	n := in.src.Len()
	req.RIDs = make([]vgraph.RecordID, 0, n)
	seen := make(map[vgraph.RecordID]struct{}, n)
	var key, probe []byte
	for i := 0; i < n; i++ {
		rid, ok := c.keptRID(in, i, pos, sets)
		var h uint64
		if !ok {
			key = stagedKey(key[:0], in, i, pos)
			h = c.content.hash(key)
			rid, probe, ok = c.parentMatch(h, key, sets, probe)
		}
		if ok {
			if _, dup := seen[rid]; !dup {
				seen[rid] = struct{}{}
				req.RIDs = append(req.RIDs, rid)
			}
			continue
		}
		row := make(relstore.Row, len(pos))
		for j, k := range pos {
			if k >= 0 {
				row[j] = in.cell(i, k)
			}
		}
		rid = c.nextRID
		c.nextRID++
		c.records[rid] = row
		c.content.add(h, rid)
		seen[rid] = struct{}{}
		req.RIDs = append(req.RIDs, rid)
		req.NewRecords = append(req.NewRecords, CommitRecord{RID: rid, Row: row})
	}
	return req, nil
}

// keptRID reports whether staged row i keeps the rid it was checked out
// with: the rid is in a parent, no other record may share its content, and
// every cell is identical to the record's (NULL past a shorter record).
func (c *CVD) keptRID(in staged, i int, pos []int, sets []*recset.Set) (vgraph.RecordID, bool) {
	if in.rid < 0 {
		return 0, false
	}
	v := in.src.At(i, in.rid)
	if v.Type != relstore.TypeInt {
		return 0, false
	}
	rid := vgraph.RecordID(v.I)
	if _, dup := c.content.shared[rid]; dup || firstParent(sets, rid) < 0 {
		return 0, false
	}
	rec, ok := c.records[rid]
	if !ok {
		return 0, false
	}
	for j, k := range pos {
		var want relstore.Value
		if j < len(rec) {
			want = rec[j]
		}
		if k < 0 {
			if !want.IsNull() {
				return 0, false
			}
		} else if !in.src.Identical(i, in.data[k], want) {
			return 0, false
		}
	}
	return rid, true
}

// parentMatch finds the record a staged row with content key (hash h)
// reuses: among the parent records with that content, the one the first
// parent (in order) holds, smallest rid first. probe is a scratch buffer,
// returned for reuse.
func (c *CVD) parentMatch(h uint64, key []byte, sets []*recset.Set, probe []byte) (vgraph.RecordID, []byte, bool) {
	first, ok := c.content.first[h]
	if !ok {
		return 0, probe, false
	}
	var best vgraph.RecordID
	bestK := len(sets)
	try := func(rid vgraph.RecordID) {
		k := firstParent(sets, rid)
		if k < 0 || k > bestK || (k == bestK && rid > best) {
			return
		}
		probe = recordKey(probe[:0], c.records[rid])
		if bytes.Equal(probe, key) {
			best, bestK = rid, k
		}
	}
	try(first)
	for _, rid := range c.content.more[h] {
		try(rid)
	}
	return best, probe, bestK < len(sets)
}

// firstParent returns the index of the first parent set holding rid, or -1.
func firstParent(sets []*recset.Set, rid vgraph.RecordID) int {
	for k, s := range sets {
		if s.Contains(int64(rid)) {
			return k
		}
	}
	return -1
}

// checkStaged verifies that every programmatic row has one value per
// column and that no two staged rows share primary-key values (a constraint
// that must hold within a single version).
func (c *CVD) checkStaged(in staged) error {
	if rs, ok := in.src.(rowsSource); ok {
		for _, r := range rs {
			if len(r) != len(in.schema.Columns) {
				return fmt.Errorf("cvd: %s: row has %d values but schema has %d columns", c.name, len(r), len(in.schema.Columns))
			}
		}
	}
	pk := in.schema.PrimaryKeyIndexes()
	if len(pk) == 0 {
		return nil
	}
	n := in.src.Len()
	seen := make(map[string]struct{}, n)
	var key []byte
	for i := 0; i < n; i++ {
		key = key[:0]
		for _, k := range pk {
			key = appendKeyCell(key, in.cell(i, k))
		}
		if _, dup := seen[string(key)]; dup {
			vals := make([]string, len(pk))
			for j, k := range pk {
				vals[j] = in.cell(i, k).AsString()
			}
			return fmt.Errorf("cvd: %s: duplicate primary key (%s) within a version", c.name, strings.Join(vals, ", "))
		}
		seen[string(key)] = struct{}{}
	}
	return nil
}
