package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain routes the crash-child re-exec: RunCrash forks this test binary
// with the same -crash-child argv the real workloadrunner uses, so the CLI's
// child path is what actually gets killed.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-crash-child" {
			os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(m.Run())
}

func writeSpec(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunRequiresSpec(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "-spec is required") {
		t.Errorf("stderr: %s", errb.String())
	}
}

func TestRunBadSpecExitsNonZero(t *testing.T) {
	path := writeSpec(t, "bad.yaml", "name: bad\nbogus: 1\n")
	var out, errb bytes.Buffer
	if code := run([]string{"-spec", path}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown key") {
		t.Errorf("stderr: %s", errb.String())
	}
}

func TestRunWritesReport(t *testing.T) {
	path := writeSpec(t, "tiny.yaml", `name: tiny
dataset: SCI_1K
clients: 2
ops: 20
mix:
  commit: 20
  checkout: 30
  select: 50
  merge: 0
`)
	out := filepath.Join(t.TempDir(), "BENCH_tiny.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-spec", path, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Spec     struct{ Name string }
		TotalOps int64 `json:"total_ops"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if report.Spec.Name != "tiny" || report.TotalOps != 20 {
		t.Errorf("report: %s", data)
	}
}

func TestCrashRequiresDurableSpec(t *testing.T) {
	path := writeSpec(t, "ephemeral.yaml", "name: ephemeral\n")
	var out, errb bytes.Buffer
	if code := run([]string{"-spec", path, "-crash"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "requires a durable spec") {
		t.Errorf("stderr: %s", errb.String())
	}
}

// TestCrashCampaign runs two real kill -9 iterations through the CLI entry
// point, with the child re-exec'd through TestMain above.
func TestCrashCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("forks and kills child processes")
	}
	path := writeSpec(t, "crash.yaml", `name: crash
engine:
  durable: true
crash:
  iterations: 2
  max_commits: 200
  min_kill_delay: 5ms
  max_kill_delay: 50ms
`)
	dir := t.TempDir()
	out := filepath.Join(dir, "CRASH_crash.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-spec", path, "-crash", "-data", filepath.Join(dir, "data"), "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Kills        int   `json:"kills"`
		AckedCommits int64 `json:"acked_commits"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.Kills != 2 || report.AckedCommits == 0 {
		t.Errorf("report: %s", data)
	}
}
