package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"repro/internal/benchmark"
	"repro/internal/core"
	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// cvdName is the dataset every workload versions.
const cvdName = "sci"

// newRowsPerCommit is how many rows a commit or merge appends to the
// versions it checked out.
const newRowsPerCommit = 10

// ownShare: one target in ownShare is one of the client's own commits.
const ownShare = 8

// selectColumn is the column the select predicate filters on; its values
// are uniform in [0, 1e6), so a threshold t selects about t/1e6 of a version.
const selectColumn = "a01"

type opKind int

const (
	opCheckout opKind = iota
	opSelect
	opCommit
	opMerge
	numKinds
)

var kindNames = [numKinds]string{"checkout", "select", "commit", "merge"}

func (k opKind) String() string { return kindNames[k] }

// op is one operation of a client's stream.
type op struct {
	kind      opKind
	seq       int
	versions  []vgraph.VersionID
	threshold int64          // select: selectColumn < threshold
	newRows   []relstore.Row // commit, merge: rows appended (rid first, unset)
}

// stream is one client's operation sequence. Every choice comes from an RNG
// seeded by (seed, workload, client), and target versions are drawn from the
// seed history plus the client's own commits, so the sequence of operations
// and of logical targets is a pure function of the seed and the client id.
//
// Operation kinds are dealt from a shuffled deck holding each kind as many
// times as its weight in the mix, so each deck's worth of a client's
// operations holds the mix exactly: a run's rare operations (explore's
// commits) do not vary in number with the seed.
type stream struct {
	rng    *rand.Rand
	deck   []opKind
	dealt  int
	client int
	width  int // data attributes per row
	base   []vgraph.VersionID
	own    []vgraph.VersionID
	seq    int
}

func newStream(seed int64, workload string, client int, mix [numKinds]int, base []vgraph.VersionID, width int) *stream {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", workload, seed, client)
	s := &stream{rng: rand.New(rand.NewSource(int64(h.Sum64()))), client: client, width: width, base: base}
	for k, w := range mix {
		for i := 0; i < w; i++ {
			s.deck = append(s.deck, opKind(k))
		}
	}
	s.dealt = len(s.deck)
	return s
}

// pick draws a target version: one time in ownShare one of the client's
// own commits, if it has any, otherwise a version of the seed history.
// Own commits descend from the client's first few targets, so their sizes
// follow a handful of early draws; keeping their share small keeps a run's
// medians from following those draws.
func (s *stream) pick() vgraph.VersionID {
	if len(s.own) > 0 && s.rng.Intn(ownShare) == 0 {
		return s.own[s.rng.Intn(len(s.own))]
	}
	return s.base[s.rng.Intn(len(s.base))]
}

// committed records a version the client created; later ops may target it.
func (s *stream) committed(v vgraph.VersionID) { s.own = append(s.own, v) }

func (s *stream) next() op {
	s.seq++
	if s.dealt == len(s.deck) {
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
		s.dealt = 0
	}
	o := op{seq: s.seq, kind: s.deck[s.dealt]}
	s.dealt++
	a := s.pick()
	o.versions = []vgraph.VersionID{a}
	switch o.kind {
	case opSelect:
		o.threshold = 5_000 + s.rng.Int63n(10_000)
	case opMerge:
		b := s.pick()
		for b == a {
			b = s.base[s.rng.Intn(len(s.base))]
		}
		o.versions = append(o.versions, b)
		fallthrough
	case opCommit:
		o.newRows = make([]relstore.Row, newRowsPerCommit)
		for j := range o.newRows {
			row := make(relstore.Row, s.width+1)
			row[0] = relstore.Null()
			// Keys above 2^40 never collide with the generator's record
			// keys, and client and sequence number keep them unique.
			row[1] = relstore.Int(1<<40 + int64(s.client)<<32 + int64(s.seq)*newRowsPerCommit + int64(j))
			for c := 2; c < len(row); c++ {
				row[c] = relstore.Int(s.rng.Int63n(1_000_000))
			}
			o.newRows[j] = row
		}
	}
	return o
}

// generate makes the named dataset preset. A preset is a fixed dataset (its
// generator seed is part of the preset); the benchmark's seed varies the
// operation streams, not the data they run on.
func generate(preset string) (*benchmark.Workload, error) {
	cfg, err := benchmark.Preset(preset, 1)
	if err != nil {
		return nil, err
	}
	return benchmark.Generate(cfg)
}

// seedEngine loads every version of w into a new CVD through Engine.Init and
// CVD.Commit, in version-id order, and returns the CVD and its versions.
func seedEngine(e *core.Engine, w *benchmark.Workload) (*cvd.CVD, []vgraph.VersionID, error) {
	order := w.Graph.TopoOrder()
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	c, err := e.Init(cvdName, w.Schema, w.Rows(order[0]), cvd.Options{Author: "perfbench", Message: "seed version 1"})
	if err != nil {
		return nil, nil, err
	}
	for _, v := range order[1:] {
		got, err := c.Commit(w.Graph.Parents(v), w.Rows(v), w.Schema, fmt.Sprintf("seed version %d", v), "perfbench")
		if err != nil {
			return nil, nil, fmt.Errorf("seeding version %d: %w", v, err)
		}
		if got != v {
			return nil, nil, fmt.Errorf("seeding: committed version %d, expected %d", got, v)
		}
	}
	return c, order, nil
}
