package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// spanID names a recorded span; 0 is "no span" (the root's parent, and
// every ID a nil tracer hands out).
type spanID int32

type span struct {
	name       string
	parent     spanID
	start, end time.Duration
}

// tracer keeps spans in memory, recorded around the benchmark's own calls
// into the simulator's modules, and exports them when the run ends. A nil
// tracer records nothing, so untraced code paths share the traced ones.
// Safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent spanID) spanID {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1})
	return spanID(len(t.spans))
}

func (t *tracer) end(id spanID) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// duration is a finished span's length.
func (t *tracer) duration(id spanID) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return s.end - s.start
}

// timed runs f inside a span and returns its wall time, traced or not.
func (t *tracer) timed(name string, parent spanID, f func(id spanID)) time.Duration {
	start := time.Now()
	id := t.begin(name, parent)
	f(id)
	t.end(id)
	return time.Since(start)
}

// spanOut is an exported span. Times are seconds since the tracer started;
// self is the duration minus the part of it its child spans cover.
type spanOut struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

// layerSelf is one layer's total self time over the exported spans.
type layerSelf struct {
	Layer string  `json:"layer"`
	SelfS float64 `json:"self_s"`
	Spans int     `json:"spans"`
}

// layerOf is the module a span is attributed to: the name up to its first
// dot ("cmp.Run" -> "cmp").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

func (t *tracer) export() []spanOut {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[spanID][]span{}
	for _, s := range t.spans {
		children[s.parent] = append(children[s.parent], s)
	}
	out := make([]spanOut, len(t.spans))
	for i, s := range t.spans {
		id := spanID(i + 1)
		end := s.end
		if end < 0 {
			end = s.start // never ended: the run failed inside it
		}
		out[i] = spanOut{
			ID:     int(id),
			Parent: int(s.parent),
			Name:   s.name,
			Layer:  layerOf(s.name),
			Start:  s.start.Seconds(),
			End:    end.Seconds(),
			Self:   (end - s.start - covered(s.start, end, children[id])).Seconds(),
		}
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to [start, end]; children of one span may overlap when they ran
// concurrently.
func covered(start, end time.Duration, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := k.start, k.end
		if b < 0 {
			b = a
		}
		if a < start {
			a = start
		}
		if b > end {
			b = end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerTotals sums self time per layer.
func layerTotals(spans []spanOut) []layerSelf {
	idx := map[string]int{}
	var out []layerSelf
	for _, s := range spans {
		i, ok := idx[s.Layer]
		if !ok {
			i = len(out)
			idx[s.Layer] = i
			out = append(out, layerSelf{Layer: s.Layer})
		}
		out[i].SelfS += s.Self
		out[i].Spans++
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}
