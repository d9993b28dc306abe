package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// interval is a stretch of time as offsets from a tracer's epoch.
type interval struct{ start, end time.Duration }

func (iv interval) dur() time.Duration { return iv.end - iv.start }

// sortIntervals orders intervals by start, as covered requires.
func sortIntervals(ivs []interval) {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
}

// covered returns how much of [lo, hi) the union of ivs covers. Overlapping
// intervals count once. ivs must be sorted by start.
func covered(ivs []interval, lo, hi time.Duration) time.Duration {
	var total time.Duration
	cur := lo // everything before cur is counted already, or outside
	for _, iv := range ivs {
		if iv.start >= hi {
			break
		}
		s, e := max(iv.start, cur), min(iv.end, hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it that its child spans
// cover. When the children run concurrently with the span's own work —
// store operations on async workers overlapping the merge — they are busy
// time of their own layer, not a share of the span, and nothing is
// subtracted. children must be sorted by start.
func selfTime(span interval, children []interval, concurrent bool) time.Duration {
	if concurrent {
		return span.dur()
	}
	return span.dur() - covered(children, span.start, span.end)
}

// span is one traced layer call: its name, the index of the span that
// caused it (-1 for an op's root) and when it ran.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) iv() interval {
	return interval{time.Duration(s.Start), time.Duration(s.End)}
}

// tracer keeps spans in memory; they are written out once, when the
// benchmark ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(t.now())})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(t.now()) }

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name string, parent int, iv interval) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(iv.start), End: int64(iv.end)})
	return len(t.spans) - 1
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int) []span {
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// unattributed is the share of span id's duration that none of its direct
// children covers.
func (t *tracer) unattributed(id int) float64 {
	root := t.spans[id].iv()
	var ivs []interval
	for _, c := range t.children(id) {
		ivs = append(ivs, c.iv())
	}
	sortIntervals(ivs)
	return float64(root.dur()-covered(ivs, root.start, root.end)) / float64(root.dur())
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
