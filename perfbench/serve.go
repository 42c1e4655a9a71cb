package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/server"
	"repro/internal/vgraph"
)

// The serve workload: orpheusd as a service for independent users. The
// engine (SCI_10K, unpartitioned, no WAL) sits behind internal/server on
// loopback; two connections send requests on an open-loop schedule at a
// fixed arrival rate, and each request is timed from when it was due.
var serveMix = [numKinds]int{opSelect: 58, opCheckout: 38, opCommit: 2, opMerge: 2}

const (
	servePreset = "SCI_10K"
	serveSetups = 3
	// serveRate is the arrival rate (operations of the mix per second). It is
	// far below the closed-loop capacity: each commit or merge holds its
	// connection and the CVD's exclusive lock for tens of milliseconds, and
	// the reads scheduled behind it wait. At 50/s about one read in ten
	// waits, and a 20 s run still holds 20 commits.
	serveRate = 50.0
	// sessionTables is how many checkouts a connection stages before it
	// closes its session (the server drops the staged tables) and opens a
	// new one.
	sessionTables = 8
	maxRetries    = 3
	hdrSpan       = "X-Perfbench-Span"
	hdrOp         = "X-Perfbench-Op"
)

// Request and response bodies of the /v1 API.
type (
	sessionBody struct {
		Session string `json:"session"`
	}
	checkoutBody struct {
		Session  string  `json:"session"`
		CVD      string  `json:"cvd"`
		Versions []int64 `json:"versions"`
		Table    string  `json:"table"`
	}
	commitBody struct {
		Session string `json:"session"`
		CVD     string `json:"cvd"`
		Table   string `json:"table"`
		Message string `json:"message"`
		Author  string `json:"author"`
	}
	commitAnswer struct {
		Version int64 `json:"version"`
	}
	predicateBody struct {
		Column string `json:"column"`
		Op     string `json:"op"`
		Value  int64  `json:"value"`
	}
	selectBody struct {
		CVD      string          `json:"cvd"`
		Versions []int64         `json:"versions"`
		Where    []predicateBody `json:"where"`
	}
	selectAnswer struct {
		Rows []struct {
			RID    int64         `json:"rid"`
			Values []json.Number `json:"values"`
		} `json:"rows"`
	}
)

// handlerTrace wraps the server as an http.Handler. While on, it records one
// span per request, the handler's time, as a child of the client's request
// span named in the request headers.
type handlerTrace struct {
	h        http.Handler
	on       atomic.Bool
	log      *sharedLog
	inflight sync.WaitGroup
}

func (t *handlerTrace) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.h.ServeHTTP(w, r)
		return
	}
	t.inflight.Add(1)
	defer t.inflight.Done()
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	opID, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
	start := time.Since(t.log.log.t0)
	t.h.ServeHTTP(w, r)
	name := strings.TrimPrefix(r.URL.Path, "/v1/")
	if strings.HasPrefix(name, "session") {
		name = "session"
	}
	t.log.add(span{Parent: parent, Op: opID, Name: "server." + name, Start: start, End: time.Since(t.log.log.t0)})
}

type serveState struct {
	e     *core.Engine
	c     *cvd.CVD
	base  []vgraph.VersionID
	srv   *server.Server
	trace *handlerTrace
	hs    *http.Server
	url   string
	done  chan struct{}
}

func setupServe(preset string) (*serveState, error) {
	w, err := generate(preset)
	if err != nil {
		return nil, err
	}
	e := core.Open("perfbench")
	c, base, err := seedEngine(e, w)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &serveState{e: e, c: c, base: base, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	st.srv = server.New(e, server.Config{})
	st.trace = &handlerTrace{h: st.srv}
	st.hs = &http.Server{Handler: st.trace}
	go func() {
		defer close(st.done)
		st.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return st, nil
}

// close stops the HTTP server and waits for it to exit.
func (st *serveState) close() {
	st.hs.Shutdown(context.Background())
	<-st.done
}

// httpClient is one connection's load generator.
type httpClient struct {
	id         int
	url        string
	hc         *http.Client
	st         *stream
	log        *spanLog
	stats      *clientStats
	session    string
	staged     int
	lag        []float64 // ms each send ran behind its schedule
	shed       int64     // 503 answers
	retries    int64
	samples    []selectSample
	selects    int
	lastAnswer selectAnswer
}

// sample keeps every sampleEvery-th select answer for the output check.
func (cl *httpClient) sample(o op) {
	cl.selects++
	if cl.selects%sampleEvery != 0 {
		return
	}
	s := selectSample{v: o.versions[0], threshold: o.threshold}
	for _, r := range cl.lastAnswer.Rows {
		vals := make([]string, len(r.Values))
		for i, v := range r.Values {
			vals[i] = v.String()
		}
		s.rows = append(s.rows, rowKey(r.RID, vals))
	}
	cl.samples = append(cl.samples, s)
}

// post sends one JSON request and decodes the answer into out (if not
// nil), retrying a 503 shed up to maxRetries times.
func (cl *httpClient) post(endpoint string, body, out any, opID, parent int64) error {
	for attempt := 0; ; attempt++ {
		i := cl.log.begin("http."+endpoint, opID, parent)
		b, err := json.Marshal(body)
		if err != nil {
			cl.log.end(i, 0)
			return err
		}
		req, err := http.NewRequest(http.MethodPost, cl.url+"/v1/"+endpoint, bytes.NewReader(b))
		if err != nil {
			cl.log.end(i, 0)
			return err
		}
		if cl.log != nil {
			req.Header.Set(hdrSpan, strconv.FormatInt(cl.log.id(i), 10))
			req.Header.Set(hdrOp, strconv.FormatInt(opID, 10))
		}
		resp, err := cl.hc.Do(req)
		if err != nil {
			cl.log.end(i, 0)
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusServiceUnavailable {
			cl.shed++
			if attempt < maxRetries {
				cl.log.end(i, int64(len(data)))
				cl.retries++
				continue
			}
		}
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/v1/%s: %s: %s", endpoint, resp.Status, bytes.TrimSpace(data))
		}
		if err == nil && out != nil {
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.UseNumber()
			err = dec.Decode(out)
		}
		cl.log.end(i, int64(len(data)))
		return err
	}
}

func versionList(vs []vgraph.VersionID) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = int64(v)
	}
	return out
}

func (cl *httpClient) exec(o op, opID int64) error {
	switch o.kind {
	case opSelect:
		var ans selectAnswer
		err := cl.post("select", selectBody{CVD: cvdName, Versions: versionList(o.versions),
			Where: []predicateBody{{Column: selectColumn, Op: "<", Value: o.threshold}}}, &ans, opID, opID)
		cl.lastAnswer = ans
		return err
	case opCheckout:
		err := cl.post("checkout", checkoutBody{Session: cl.session, CVD: cvdName, Versions: versionList(o.versions),
			Table: fmt.Sprintf("t%d", o.seq)}, nil, opID, opID)
		if err == nil {
			cl.staged++
		}
		return err
	default: // opCommit, opMerge
		table := fmt.Sprintf("w%d", o.seq)
		err := cl.post("checkout", checkoutBody{Session: cl.session, CVD: cvdName, Versions: versionList(o.versions),
			Table: table}, nil, opID, opID)
		if err != nil {
			return err
		}
		var ans commitAnswer
		err = cl.post("commit", commitBody{Session: cl.session, CVD: cvdName, Table: table,
			Message: fmt.Sprintf("connection %d op %d", cl.id, o.seq), Author: "perfbench"}, &ans, opID, opID)
		if err != nil {
			return err
		}
		cl.st.committed(vgraph.VersionID(ans.Version))
		return nil
	}
}

// openSession opens a session for the connection's staged tables.
func (cl *httpClient) openSession() {
	var ans sessionBody
	cl.sessionOp(cl.post("session", struct{}{}, &ans, 0, 0))
	cl.session, cl.staged = ans.Session, 0
}

// closeSession closes the connection's session; the server drops its staged
// tables.
func (cl *httpClient) closeSession() {
	cl.sessionOp(cl.post("session/close", sessionBody{Session: cl.session}, nil, 0, 0))
	cl.session, cl.staged = "", 0
}

// sessionOp counts a session request as one operation.
func (cl *httpClient) sessionOp(err error) {
	cl.stats.attempted++
	if err != nil {
		cl.stats.failed++
		if cl.stats.firstErr == nil {
			cl.stats.firstErr = fmt.Errorf("session: %w", err)
		}
	}
}

// openLoop issues the connection's k-th operation when it is due, at
// start+offset+k·interval (or as soon as the previous one returns, if that is
// later), until the schedule passes the deadline. Latency counts from the
// due time, so a stall also charges the requests queued behind it.
func (cl *httpClient) openLoop(start time.Time, offset, interval time.Duration, deadline time.Time) {
	for k := 0; ; k++ {
		due := start.Add(offset + time.Duration(k)*interval)
		if !due.Before(deadline) {
			return
		}
		waitUntil(due)
		cl.lag = append(cl.lag, ms(time.Since(due)))
		o := cl.st.next()
		root := cl.log.beginOp("op." + o.kind.String())
		err := cl.exec(o, cl.log.id(root))
		cl.log.end(root, 0)
		cl.stats.record(o.kind, time.Since(due), err)
		if o.kind == opSelect && err == nil {
			cl.sample(o)
		}
		if cl.staged >= sessionTables {
			cl.closeSession()
			cl.openSession()
		}
	}
}

// timerSlack is how early before a send the generator stops sleeping and
// spins: a sleeping goroutine wakes up to a millisecond late, and that
// lateness would count in every latency.
const timerSlack = time.Millisecond

// waitUntil returns at t: it sleeps until timerSlack before t, then spins.
func waitUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// servePhase is one open-loop phase with what only the load generator sees.
type servePhase struct {
	phase
	lag           []float64
	shed, retries int64
}

func runServePhase(st *serveState, cls []*httpClient, d time.Duration, traced bool) servePhase {
	t0 := time.Now()
	if traced {
		st.trace.log = &sharedLog{log: newSpanLog(t0, len(cls))}
		st.trace.on.Store(true)
	}
	p := servePhase{phase: phase{rt0: readRuntime()}}
	interval := time.Duration(float64(len(cls)) / serveRate * float64(time.Second))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, cl := range cls {
		cl.stats, cl.lag, cl.shed, cl.retries, cl.log = &clientStats{}, nil, 0, 0, nil
		if traced {
			cl.log = newSpanLog(t0, cl.id)
		}
		cl.openSession()
		wg.Add(1)
		go func(cl *httpClient, offset time.Duration) {
			defer wg.Done()
			cl.openLoop(start, offset, interval, deadline)
		}(cl, time.Duration(i)*interval/time.Duration(len(cls)))
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.rt1 = readRuntime()
	for _, cl := range cls {
		cl.closeSession()
	}
	if traced {
		st.trace.on.Store(false)
		st.trace.inflight.Wait()
		p.spans = append(p.spans, st.trace.log.log.spans()...)
	}
	for _, cl := range cls {
		p.stats.merge(cl.stats)
		p.lag = append(p.lag, cl.lag...)
		p.shed += cl.shed
		p.retries += cl.retries
		if cl.log != nil {
			p.spans = append(p.spans, cl.log.spans()...)
		}
	}
	return p
}

func runServe(cfg config) (*report, error) {
	preset, setups := pick(cfg.preset, servePreset), pickInt(cfg.setups, serveSetups)
	st, setupS, err := timeSetups(setups, func(int) (*serveState, error) {
		return setupServe(preset)
	}, (*serveState).close)
	if err != nil {
		return nil, err
	}
	heap := heapPerRecord(st.c.NumRecords())
	defer st.close()
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	width := len(st.c.Schema().Columns)
	cls := make([]*httpClient, clients)
	for i := range cls {
		cls[i] = &httpClient{id: i, url: st.url, hc: hc, st: newStream(cfg.seed, "serve", i, serveMix, st.base, width)}
	}
	r := newReport()
	if !cfg.trace {
		p := runServePhase(st, cls, cfg.seconds, false)
		r.addOps(p.stats)
		if err := r.endToEndMetrics(p.phase, setupS, heap); err != nil {
			return nil, err
		}
	} else {
		a := runServePhase(st, cls, cfg.seconds/2, false)
		b := runServePhase(st, cls, cfg.seconds/2, true)
		r.addOps(a.stats)
		r.addOps(b.stats)
		r.serveLayers(a, b)
		r.spans = b.spans
	}
	var samples []selectSample
	for _, cl := range cls {
		samples = append(samples, cl.samples...)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no select answer was sampled for the output check")
	}
	bad, err := checkServedSelects(st.c, samples)
	if err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	r.badChecks += int64(bad)
	return r, nil
}

// serveLayers fills the per-layer metrics of serve from an untraced phase a
// and the traced phase b that followed it.
func (r *report) serveLayers(a, b servePhase) {
	m := r.metrics
	agg := aggregate(b.spans)
	for _, name := range []string{"checkout", "select", "commit", "session"} {
		m["server."+name+"_ms"] = selfP50(agg, "server."+name)
	}
	// Wire time: each request's client round trip minus its handler time.
	handler := make(map[int64]time.Duration)
	for _, s := range b.spans {
		if strings.HasPrefix(s.Name, "server.") {
			handler[s.Parent] = s.End - s.Start
		}
	}
	var wire []float64
	for _, s := range b.spans {
		if h, ok := handler[s.ID]; ok {
			wire = append(wire, ms(s.End-s.Start-h))
		}
	}
	m["server.wire_ms"] = median(wire)
	m["server.select_resp_bytes"] = rowsP50(agg, "http.select")
	m["server.shed"] = float64(b.shed)
	m["server.retries"] = float64(b.retries)
	m["loadgen.lag_p90_ms"] = tail(a.lag, 0.9)
	r.opLayers(a.phase, b.phase)
	m["trace_overhead"] = ratio(median(b.stats.lat[opSelect]), median(a.stats.lat[opSelect])) - 1
}

// checkServedSelects verifies sampled /v1/select answers against the
// in-process ScanVersions answer for the same version and predicate. It
// returns how many samples disagree.
func checkServedSelects(c *cvd.CVD, samples []selectSample) (int, error) {
	bad := 0
	for _, s := range samples {
		pred, err := c.NamedPredicate(selectColumn, "<", relstore.Int(s.threshold))
		if err != nil {
			return bad, err
		}
		rows, err := c.ScanVersions([]vgraph.VersionID{s.v}, pred, 0)
		if err != nil {
			return bad, err
		}
		want := make([]string, len(rows))
		for i, r := range rows {
			want[i] = rowKey(int64(r.RID), valueStrings(r.Row))
		}
		if !sameRows(want, s.rows) {
			bad++
		}
	}
	return bad, nil
}
