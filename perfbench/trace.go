package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call.
type span struct {
	ID, Parent int64
	Op         int64 // ID of the operation span this call belongs to
	Name       string
	Start, End time.Duration // since the trace origin
	Rows       int64         // work the call reports: rows materialized, staged or scanned, or bytes received
}

// spanLog keeps the spans of one goroutine in memory, in fixed-size chunks
// so that recording a span never copies the earlier ones. A nil *spanLog
// records nothing, so an untraced run passes nil and pays one nil check per
// call.
type spanLog struct {
	t0     time.Time
	base   int64
	next   int64
	chunks [][]span
}

const spanChunk = 4096

// at returns the span with handle i.
func (l *spanLog) at(i int) *span { return &l.chunks[i/spanChunk][i%spanChunk] }

// push appends a span and returns its handle.
func (l *spanLog) push(sp span) int {
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == spanChunk {
		l.chunks = append(l.chunks, make([]span, 0, spanChunk))
		n++
	}
	l.chunks[n-1] = append(l.chunks[n-1], sp)
	return (n-1)*spanChunk + len(l.chunks[n-1]) - 1
}

// spans returns every recorded span.
func (l *spanLog) spans() []span {
	var out []span
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return out
}

// newSpanLog returns a log whose span IDs cannot collide with another
// owner's; every log of one run shares the origin t0.
func newSpanLog(t0 time.Time, owner int) *spanLog {
	return &spanLog{t0: t0, base: int64(owner+1) << 40}
}

// begin opens a span and returns its handle (-1 on a nil log).
func (l *spanLog) begin(name string, op, parent int64) int {
	if l == nil {
		return -1
	}
	l.next++
	return l.push(span{ID: l.base | l.next, Parent: parent, Op: op, Name: name, Start: time.Since(l.t0)})
}

// beginOp opens the root span of an operation.
func (l *spanLog) beginOp(name string) int {
	i := l.begin(name, 0, 0)
	if i >= 0 {
		l.at(i).Op = l.at(i).ID
	}
	return i
}

// end closes the span with handle i, recording the work count.
func (l *spanLog) end(i int, rows int64) {
	if l == nil || i < 0 {
		return
	}
	sp := l.at(i)
	sp.End = time.Since(l.t0)
	sp.Rows = rows
}

// id returns the span ID of handle i (0 on a nil log).
func (l *spanLog) id(i int) int64 {
	if l == nil || i < 0 {
		return 0
	}
	return l.at(i).ID
}

// sharedLog is a spanLog several goroutines append to (the HTTP handlers).
type sharedLog struct {
	mu  sync.Mutex
	log *spanLog
}

func (s *sharedLog) add(sp span) {
	s.mu.Lock()
	s.log.next++
	sp.ID = s.log.base | s.log.next
	s.log.push(sp)
	s.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover, indexed like spans.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int64][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(s, spans, kids[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of the child
// spans covers.
func covered(parent span, spans []span, kids []int) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// checkTrace verifies the shape of a trace: every span ends after it
// starts and every child span lies inside its parent, in the same
// operation. It returns the share of all operation time the children of
// the operation spans cover, and the share of operations whose children
// leave at most maxGap of it, or slack, uncovered.
func checkTrace(spans []span, maxGap float64, slack time.Duration) (coverage, within float64, err error) {
	byID := make(map[int64]int, len(spans))
	kids := make(map[int64][]int)
	for i, s := range spans {
		byID[s.ID] = i
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for _, s := range spans {
		if s.End < s.Start {
			return 0, 0, fmt.Errorf("span %s (%d) ends before it starts", s.Name, s.ID)
		}
		if s.Parent == 0 {
			continue
		}
		pi, ok := byID[s.Parent]
		if !ok {
			return 0, 0, fmt.Errorf("span %s (%d) has no parent %d", s.Name, s.ID, s.Parent)
		}
		p := spans[pi]
		if s.Op != p.Op {
			return 0, 0, fmt.Errorf("span %s (%d) is in operation %d, its parent %s in %d", s.Name, s.ID, s.Op, p.Name, p.Op)
		}
		if s.Start < p.Start || s.End > p.End {
			return 0, 0, fmt.Errorf("span %s [%v, %v] is not inside its parent %s [%v, %v]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	var opTime, opCovered time.Duration
	var ops, good int
	for _, s := range spans {
		if s.Op != s.ID {
			continue
		}
		c := covered(s, spans, kids[s.ID])
		opTime += s.End - s.Start
		opCovered += c
		ops++
		if gap := s.End - s.Start - c; gap <= slack || float64(gap) <= maxGap*float64(s.End-s.Start) {
			good++
		}
	}
	if ops == 0 {
		return 0, 0, fmt.Errorf("trace holds no operation span")
	}
	return float64(opCovered) / float64(opTime), float64(good) / float64(ops), nil
}

// layerAgg collects, per span name, the self times (ms) and work counts.
type layerAgg struct {
	selfMS []float64
	rows   []float64
	selfNS float64
	total  float64 // sum of rows
}

func aggregate(spans []span) map[string]*layerAgg {
	self := selfTimes(spans)
	out := make(map[string]*layerAgg)
	for i, s := range spans {
		a := out[s.Name]
		if a == nil {
			a = &layerAgg{}
			out[s.Name] = a
		}
		a.selfMS = append(a.selfMS, ms(self[i]))
		a.rows = append(a.rows, float64(s.Rows))
		a.selfNS += float64(self[i])
		a.total += float64(s.Rows)
	}
	return out
}

// selfP50 is the median self time (ms) of the spans named name.
func selfP50(agg map[string]*layerAgg, name string) float64 {
	if a := agg[name]; a != nil {
		return median(a.selfMS)
	}
	return 0
}

// rowsP50 is the median work count of the spans named name.
func rowsP50(agg map[string]*layerAgg, name string) float64 {
	if a := agg[name]; a != nil {
		return median(a.rows)
	}
	return 0
}

// nsPerRow is the total self time of the spans named name over their total
// work count.
func nsPerRow(agg map[string]*layerAgg, name string) float64 {
	if a := agg[name]; a != nil {
		return ratio(a.selfNS, a.total)
	}
	return 0
}
