package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vfs"
	"repro/internal/vgraph"
)

// TestCountingFSMatchesDisk runs a short ingest phase through the counting
// FS and checks that the bytes it counted for each file equal the sizes of
// the files the data directory holds afterwards.
func TestCountingFSMatchesDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	st, err := setupIngest(dir, "SCI_1K")
	if err != nil {
		t.Fatal(err)
	}
	cls := make([]*engineClient, clients)
	for i := range cls {
		cls[i] = &engineClient{id: i, e: st.e, c: st.c, st: newStream(5, "ingest", i, ingestMix, st.base, len(st.c.Schema().Columns))}
	}
	p, k, _, _ := runIngestPhase(st, cls, time.Second, false, 5)
	if p.stats.failed != 0 || k.failures != 0 || len(k.total) == 0 {
		t.Fatalf("phase: %d failed ops, %d failed and %d good checkpoints", p.stats.failed, k.failures, len(k.total))
	}
	if err := st.e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.e.Close(); err != nil {
		t.Fatal(err)
	}
	written := st.fs.writtenTo()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var live [numClasses]int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, e.Name())
		if got := written[path]; got != info.Size() {
			t.Errorf("%s: counted %d bytes written, file holds %d", e.Name(), got, info.Size())
		}
		live[classify(path)] += info.Size()
		delete(written, path)
	}
	for path := range written {
		t.Errorf("%s: counted as live but not on disk", path)
	}
	snap := st.fs.snapshot()
	for c := fileClass(0); c < numClasses; c++ {
		if snap.class[c].bytes < live[c] {
			t.Errorf("class %d: %d bytes written in total, fewer than the %d on disk", c, snap.class[c].bytes, live[c])
		}
	}
	if snap.class[classWAL].syncs == 0 || snap.class[classPack].bytes == 0 || snap.class[classManifest].bytes == 0 || snap.renames == 0 {
		t.Errorf("counters missed a file class: %+v", snap)
	}
}

// durableScript drives a durable engine on fsys through init, commits, a
// checkpoint and close, and returns each step's outcome with dir replaced
// by "DIR". The clock is fixed so two runs write identical bytes.
func durableScript(dir string, fsys vfs.FS) []string {
	var out []string
	note := func(err error) bool {
		s := "ok"
		if err != nil {
			s = strings.ReplaceAll(err.Error(), dir, "DIR")
		}
		out = append(out, s)
		return err == nil
	}
	e, err := core.OpenDurable("script", dir, core.WithFS(fsys))
	if !note(err) {
		return out
	}
	defer e.Close()
	schema := relstore.MustSchema([]relstore.Column{{Name: "k", Type: relstore.TypeInt}, {Name: "v", Type: relstore.TypeInt}}, "k")
	var rows []relstore.Row
	for i := 0; i < 20; i++ {
		rows = append(rows, relstore.Row{relstore.Int(int64(i)), relstore.Int(int64(i * i))})
	}
	at := time.Unix(1_700_000_000, 0)
	c, err := e.Init("t", schema, rows, cvd.Options{Clock: func() time.Time { return at }})
	if !note(err) {
		return out
	}
	for i := 0; i < 6; i++ {
		rows = append(rows, relstore.Row{relstore.Int(int64(100 + i)), relstore.Int(int64(i))})
		_, err := c.Commit([]vgraph.VersionID{vgraph.VersionID(i + 1)}, rows, schema, fmt.Sprintf("c%d", i), "script")
		note(err)
		if i == 2 {
			note(e.Checkpoint())
		}
	}
	note(e.Close())
	return out
}

// TestCountingFSPassThrough checks that the counting FS changes no
// outcome: a script run on a fault-injecting FS, with a fault armed at each
// operation in turn, fails the same way with and without the wrapper, and
// fault-free it leaves the same files behind.
func TestCountingFSPassThrough(t *testing.T) {
	listing := func(dir string) map[string]int64 {
		out := make(map[string]int64)
		ents, _ := os.ReadDir(dir)
		for _, e := range ents {
			if info, err := e.Info(); err == nil {
				out[e.Name()] = info.Size()
			}
		}
		return out
	}
	plainDir, countedDir := t.TempDir(), t.TempDir()
	plain := durableScript(plainDir, vfs.OS())
	counted := durableScript(countedDir, newCountingFS(vfs.OS()))
	if !reflect.DeepEqual(plain, counted) {
		t.Fatalf("fault-free outcomes differ:\n%v\n%v", plain, counted)
	}
	if !reflect.DeepEqual(listing(plainDir), listing(countedDir)) {
		t.Fatalf("fault-free files differ:\n%v\n%v", listing(plainDir), listing(countedDir))
	}
	probe := vfs.NewFaultFS(vfs.OS(), 1)
	durableScript(t.TempDir(), probe)
	ops := probe.Ops()
	if ops == 0 {
		t.Fatal("the script made no counted I/O operation")
	}
	faults := 0
	for _, kind := range []vfs.FaultKind{vfs.FaultENOSPC, vfs.FaultShortWrite, vfs.FaultSyncErr, vfs.FaultCrash} {
		for op := int64(1); op <= ops; op++ {
			a, b := vfs.NewFaultFS(vfs.OS(), 1), vfs.NewFaultFS(vfs.OS(), 1)
			a.FailAt(op, kind)
			b.FailAt(op, kind)
			want := durableScript(t.TempDir(), a)
			got := durableScript(t.TempDir(), newCountingFS(b))
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%v at op %d: outcomes differ with the wrapper:\n%v\n%v", kind, op, want, got)
			}
			if a.Injected() > 0 {
				faults++
			}
		}
	}
	if faults == 0 {
		t.Fatal("no fault fired")
	}
}
