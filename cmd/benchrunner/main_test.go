package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownExperiment: an id that matches nothing is an error (main exits
// non-zero on it), not a silent no-op run — with or without -out set.
func TestUnknownExperiment(t *testing.T) {
	for _, out := range []string{"", filepath.Join(t.TempDir(), "never.json")} {
		err := run("no-such-experiment", "SCI_1K", 1, 0, -1, out)
		if err == nil {
			t.Fatalf("unknown experiment id ran successfully (out=%q)", out)
		}
		if !strings.Contains(err.Error(), "no-such-experiment") {
			t.Fatalf("error does not name the experiment: %v", err)
		}
		if out != "" {
			if _, serr := os.Stat(out); serr == nil {
				t.Fatalf("unknown experiment wrote %s", out)
			}
		}
	}
}

// TestRegistryShape: ids are unique across primaries and aliases, and every
// entry has a runner — the invariants dispatch relies on.
func TestRegistryShape(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		for _, id := range append([]string{e.id}, e.aliases...) {
			key := strings.ToLower(id)
			if seen[key] {
				t.Errorf("duplicate experiment id %q", id)
			}
			seen[key] = true
		}
		if e.run == nil {
			t.Errorf("experiment %q has no runner", e.id)
		}
	}
}

// TestDispatchSingleExperiment: a known id at small scale runs end to end,
// and alias ids select the same entry.
func TestDispatchSingleExperiment(t *testing.T) {
	if err := run("fig5.7", "SCI_1K", 1, 0, -1, ""); err != nil {
		t.Fatalf("fig5.7: %v", err)
	}
}

func TestDispatchAlias(t *testing.T) {
	var matched *experiment
	for i := range experiments {
		if experiments[i].matches("fig5.12") {
			matched = &experiments[i]
			break
		}
	}
	if matched == nil || matched.id != "fig5.10" {
		t.Fatalf("alias fig5.12 did not resolve to fig5.10: %+v", matched)
	}
}

// TestOutWritesJSON: -out with an explicitly selected report-producing
// experiment writes a parseable JSON document at the given path.
func TestOutWritesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full group-commit sweep")
	}
	out := filepath.Join(t.TempDir(), "gc.json")
	if err := run("groupcommit", "SCI_1K", 1, 0, -1, out); err != nil {
		t.Fatalf("groupcommit: %v", err)
	}
	doc, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("-out file not written: %v", err)
	}
	var report struct {
		Results []struct {
			Clients int     `json:"clients"`
			Speedup float64 `json:"speedup"`
		} `json:"results"`
	}
	if err := json.Unmarshal(doc, &report); err != nil {
		t.Fatalf("-out is not valid JSON: %v", err)
	}
	if len(report.Results) != 2 || report.Results[0].Clients != 64 {
		t.Fatalf("unexpected report shape: %+v", report)
	}
}
