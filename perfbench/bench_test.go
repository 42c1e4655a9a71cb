package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/vgraph"
)

// smallConfig is a workload run small enough for a unit test.
func smallConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload:  workload,
		seed:      7,
		seconds:   2 * time.Second,
		trace:     trace,
		dataDir:   t.TempDir(),
		preset:    "SCI_1K",
		setups:    1,
		ckptEvery: 5,
	}
}

// TestTraceShape runs every workload traced and checks that the child
// spans of every operation nest inside it, that they cover 95% of all
// operation time, and that 95% of operations have at most 10% of their time
// (or 0.2 ms, for the microsecond operations of the test's small dataset)
// outside any child span, so per-layer self times account for the
// operations. The rest lose their CPU between two calls, to the other
// client or to a garbage-collection assist.
func TestTraceShape(t *testing.T) {
	const maxGap, slack, minCoverage, minWithin = 0.1, 200 * time.Microsecond, 0.95, 0.95
	for _, w := range []string{"explore", "ingest", "serve"} {
		t.Run(w, func(t *testing.T) {
			rep, err := run(smallConfig(t, w, true))
			if err != nil {
				t.Fatal(err)
			}
			if rep.badChecks != 0 || rep.failed != 0 {
				t.Fatalf("%d failed checks, %d failed operations", rep.badChecks, rep.failed)
			}
			coverage, within, err := checkTrace(rep.spans, maxGap, slack)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("child spans cover %.4f of operation time; %.4f of operations are within the gap", coverage, within)
			if coverage < minCoverage || within < minWithin {
				t.Fatalf("coverage %.4f (want %.2f), operations within the gap %.4f (want %.2f)", coverage, minCoverage, within, minWithin)
			}
			if _, err := rep.result(true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestUntracedRun checks that an untraced run reports every end-to-end
// metric, each above 0.
func TestUntracedRun(t *testing.T) {
	cfg := smallConfig(t, "explore", false)
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rep.result(false)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 {
		t.Fatalf("correct=%v failed=%d", out.Correct, out.Failed)
	}
	for _, d := range endToEnd {
		if m := out.Metrics[d.name]; m.Value <= 0 || m.Unit != d.unit {
			t.Errorf("%s = %v %s", d.name, m.Value, m.Unit)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"explore", "ingest", "serve"}; !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []decl) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), program reports %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestStreamDeterministic checks that a client's operations are a pure
// function of the seed and the client id.
func TestStreamDeterministic(t *testing.T) {
	base := []vgraph.VersionID{1, 2, 3, 4, 5}
	ops := func(seed int64, client int) []op {
		s := newStream(seed, "ingest", client, ingestMix, base, 5)
		var out []op
		for i := 0; i < 200; i++ {
			o := s.next()
			if o.kind == opCommit || o.kind == opMerge {
				s.committed(vgraph.VersionID(100 + i))
			}
			out = append(out, o)
		}
		return out
	}
	if !reflect.DeepEqual(ops(1, 0), ops(1, 0)) {
		t.Fatal("same seed and client gave different streams")
	}
	if reflect.DeepEqual(ops(1, 0), ops(1, 1)) || reflect.DeepEqual(ops(1, 0), ops(2, 0)) {
		t.Fatal("different clients or seeds gave the same stream")
	}
}

// TestChecksCatchWrongAnswers checks that the output checks fail on a
// wrong select answer and on a recovered version that differs.
func TestChecksCatchWrongAnswers(t *testing.T) {
	st, err := setupExplore("SCI_1K")
	if err != nil {
		t.Fatal(err)
	}
	cl := &engineClient{e: st.e, c: st.c, stats: &clientStats{}, st: newStream(3, "explore", 0, [numKinds]int{opSelect: 1}, st.base, 20)}
	for len(cl.samples) == 0 {
		cl.do(cl.st.next())
	}
	s := cl.samples[0]
	if bad, err := checkSelects(st.e, st.c, []selectSample{s}); err != nil || bad != 0 {
		t.Fatalf("correct answer: bad=%d err=%v", bad, err)
	}
	if len(s.rows) == 0 {
		t.Fatal("sampled answer is empty")
	}
	s.rows = s.rows[1:]
	if bad, _ := checkSelects(st.e, st.c, []selectSample{s}); bad != 1 {
		t.Fatal("a select answer missing a row passed the check")
	}
	if bad, _ := checkServedSelects(st.c, []selectSample{s}); bad != 1 {
		t.Fatal("a served answer missing a row passed the check")
	}

	other, err := setupExplore("SCI_2K")
	if err != nil {
		t.Fatal(err)
	}
	want, err := versionDigests(st.e, st.base)
	if err != nil {
		t.Fatal(err)
	}
	if bad, err := sameVersions(st.e, st.e, st.base, want); err != nil || bad != 0 {
		t.Fatalf("identical engines: bad=%d err=%v", bad, err)
	}
	if bad, _ := sameVersions(st.e, other.e, st.base[:1], want); bad != 1 {
		t.Fatal("a version with other rows passed the recovery check")
	}
}
