package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// sampleEvery is how often (in selects per client) a select's answer is kept
// for the output check after the timed phase.
const sampleEvery = 16

// clientStats is what one client observed: latency per operation kind and
// the operations attempted and failed.
type clientStats struct {
	lat               [numKinds][]float64 // ms
	attempted, failed int64
	firstErr          error
}

func (s *clientStats) record(k opKind, d time.Duration, err error) {
	s.attempted++
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = fmt.Errorf("%s: %w", k, err)
		}
		return
	}
	s.lat[k] = append(s.lat[k], ms(d))
}

func (s *clientStats) merge(o *clientStats) {
	for k := range s.lat {
		s.lat[k] = append(s.lat[k], o.lat[k]...)
	}
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// completed counts the operations of the mix that succeeded.
func (s *clientStats) completed() int64 {
	var n int64
	for _, l := range s.lat {
		n += int64(len(l))
	}
	return n
}

// reads pools the checkout and select latencies.
func (s *clientStats) reads() []float64 {
	return append(append([]float64(nil), s.lat[opCheckout]...), s.lat[opSelect]...)
}

// selectSample is a select's answer kept for the output check, each row in
// canonical form (rowKey).
type selectSample struct {
	v         vgraph.VersionID
	threshold int64
	rows      []string
}

// rowKey renders a record as "rid|v1,v2,..." for comparisons.
func rowKey(rid int64, vals []string) string {
	return strconv.FormatInt(rid, 10) + "|" + strings.Join(vals, ",")
}

func valueStrings(r relstore.Row) []string {
	out := make([]string, len(r))
	for i, v := range r {
		out[i] = v.AsString()
	}
	return out
}

// engineClient is one in-process client: it drives its stream against the
// engine through the public API of core and cvd.
type engineClient struct {
	id       int
	e        *core.Engine
	c        *cvd.CVD
	st       *stream
	log      *spanLog // nil when untraced
	stats    *clientStats
	samples  []selectSample
	selects  int
	lastScan []cvd.VersionedRow
	onCommit func() // called after each successful commit or merge
}

// do runs one operation and records its latency.
func (cl *engineClient) do(o op) {
	l := cl.log
	root := l.beginOp("op." + o.kind.String())
	start := time.Now()
	rows, err := cl.exec(o, l.id(root))
	el := time.Since(start)
	l.end(root, rows)
	cl.stats.record(o.kind, el, err)
	if o.kind == opSelect && err == nil {
		cl.sample(o)
	}
}

// sample keeps every sampleEvery-th select answer for the output check.
func (cl *engineClient) sample(o op) {
	cl.selects++
	if cl.selects%sampleEvery != 0 {
		return
	}
	s := selectSample{v: o.versions[0], threshold: o.threshold}
	for _, r := range cl.lastScan {
		s.rows = append(s.rows, rowKey(int64(r.RID), valueStrings(r.Row)))
	}
	cl.samples = append(cl.samples, s)
}

// probe times a no-op WithShared call: how long a read waits for the CVD
// lock right now. It runs in traced runs only.
func (cl *engineClient) probe(opID int64) {
	if cl.log == nil {
		return
	}
	i := cl.log.begin("cvd.rlock_wait", opID, opID)
	_ = cl.c.WithShared(func() error { return nil }) // the no-op cannot fail
	cl.log.end(i, 0)
}

func (cl *engineClient) exec(o op, opID int64) (int64, error) {
	l := cl.log
	tab := fmt.Sprintf("pb%d_%d", cl.id, o.seq)
	switch o.kind {
	case opCheckout:
		cl.probe(opID)
		i := l.begin("cvd.checkout", opID, opID)
		t, err := cl.e.Checkout(cvdName, o.versions, tab)
		if err != nil {
			l.end(i, 0)
			return 0, err
		}
		n := int64(t.Len())
		l.end(i, n)
		i = l.begin("cvd.discard", opID, opID)
		cl.c.DiscardCheckout(tab)
		l.end(i, 0)
		return n, nil
	case opSelect:
		cl.probe(opID)
		i := l.begin("cvd.pred", opID, opID)
		pred, err := cl.c.NamedPredicate(selectColumn, "<", relstore.Int(o.threshold))
		l.end(i, 0)
		if err != nil {
			return 0, err
		}
		i = l.begin("cvd.scan", opID, opID)
		rows, err := cl.c.ScanVersions(o.versions, pred, 0)
		l.end(i, int64(len(rows)))
		cl.lastScan = rows
		return int64(len(rows)), err
	default: // opCommit, opMerge
		name := "commit.checkout"
		if o.kind == opMerge {
			name = "cvd.merge_checkout"
		}
		i := l.begin(name, opID, opID)
		t, err := cl.e.Checkout(cvdName, o.versions, tab)
		if err != nil {
			l.end(i, 0)
			return 0, err
		}
		l.end(i, int64(t.Len()))
		i = l.begin("commit.stage", opID, opID)
		for _, r := range o.newRows {
			t.AppendRow(r)
		}
		l.end(i, int64(len(o.newRows)))
		staged := int64(t.Len())
		i = l.begin("commit.apply", opID, opID)
		v, err := cl.e.Commit(cvdName, tab, fmt.Sprintf("client %d op %d", cl.id, o.seq), "perfbench")
		l.end(i, staged)
		if err != nil {
			if v == 0 {
				cl.c.DiscardCheckout(tab)
			}
			return 0, err
		}
		cl.st.committed(v)
		if cl.onCommit != nil {
			cl.onCommit()
		}
		return staged, nil
	}
}

// closedLoop runs every client on its own goroutine, each issuing its next
// operation as soon as the previous one returns, until d has passed. It
// returns the wall time up to the last completion. When traced, each client
// records spans into a fresh log sharing origin t0.
func closedLoop(clients []*engineClient, d time.Duration, traced bool, t0 time.Time) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, cl := range clients {
		cl.stats = &clientStats{}
		cl.log = nil
		if traced {
			cl.log = newSpanLog(t0, cl.id)
		}
		wg.Add(1)
		go func(cl *engineClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				cl.do(cl.st.next())
			}
		}(cl)
	}
	wg.Wait()
	return time.Since(start)
}

// phase is the outcome of one timed phase.
type phase struct {
	elapsed  time.Duration
	stats    clientStats
	spans    []span
	rt0, rt1 runtimeSample
}

// runClosed runs a closed-loop phase and gathers its results.
func runClosed(clients []*engineClient, d time.Duration, traced bool) phase {
	t0 := time.Now()
	p := phase{rt0: readRuntime()}
	p.elapsed = closedLoop(clients, d, traced, t0)
	p.rt1 = readRuntime()
	for _, cl := range clients {
		p.stats.merge(cl.stats)
		if cl.log != nil {
			p.spans = append(p.spans, cl.log.spans()...)
		}
	}
	return p
}

// checkSelects verifies the sampled select answers against a filter over
// the full checkout of the same version (core.CheckoutVersionRows). It
// returns how many samples disagree.
func checkSelects(e *core.Engine, c *cvd.CVD, samples []selectSample) (int, error) {
	col := c.Schema().ColumnIndex(selectColumn)
	bad := 0
	for i, s := range samples {
		rows, err := core.CheckoutVersionRows(e, cvdName, s.v, fmt.Sprintf("check%d", i))
		if err != nil {
			return bad, err
		}
		var want []string
		for _, r := range rows {
			// Checkout rows carry the rid first.
			if r[1+col].AsInt() < s.threshold {
				want = append(want, rowKey(r[0].AsInt(), valueStrings(r[1:])))
			}
		}
		if !sameRows(want, s.rows) {
			bad++
		}
	}
	return bad, nil
}

// sameRows compares two answers as sets of canonical rows.
func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
