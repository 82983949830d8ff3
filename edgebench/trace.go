package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// that layer's public entry point. Req is the sample (fan workloads) or
// batch (tier) index the call served, and Parent the layer whose call
// makes this one in the real request path. Replayed layers run on twins
// after the request path, so their intervals do not sit inside their
// parent's: the tree is by layer and request ID.
type span struct {
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// keepPerLayer bounds how many spans per layer the trace file holds;
// the totals cover every span.
const keepPerLayer = 2000

// tracer records spans in memory: the summed duration per layer, and
// the first keepPerLayer spans of each layer for the trace file. One
// tracer belongs to one goroutine; merge folds them together.
type tracer struct {
	tree  map[string]string // layer -> parent layer, "" for the root
	epoch time.Time
	total map[string]time.Duration
	kept  []span
	nkept map[string]int
}

func newTracer(tree map[string]string, epoch time.Time) *tracer {
	return &tracer{tree: tree, epoch: epoch, total: map[string]time.Duration{}, nkept: map[string]int{}}
}

func (t *tracer) record(layer string, req int, start, end time.Time) {
	parent, ok := t.tree[layer]
	if !ok {
		panic("edgebench: span for undeclared layer " + layer)
	}
	t.total[layer] += end.Sub(start)
	if t.nkept[layer] < keepPerLayer {
		t.nkept[layer]++
		t.kept = append(t.kept, span{layer, parent, req,
			int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))})
	}
}

func (t *tracer) merge(o *tracer) {
	for l, d := range o.total {
		t.total[l] += d
	}
	for _, s := range o.kept {
		if t.nkept[s.Layer] < keepPerLayer {
			t.nkept[s.Layer]++
			t.kept = append(t.kept, s)
		}
	}
}

// self is a layer's summed span time minus its children's.
func (t *tracer) self(layer string) time.Duration {
	s := t.total[layer]
	for child, parent := range t.tree {
		if parent == layer {
			s -= t.total[child]
		}
	}
	return s
}

// writeTrace writes the traced run's spans as JSON lines after a header
// line carrying the host block, ordered by layer, then request.
func writeTrace(path string, h host, seed uint64, out *outcome) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer f.Close()
	sort.SliceStable(out.spans, func(i, j int) bool {
		a, b := out.spans[i], out.spans[j]
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		return a.Req < b.Req
	})
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"host": h, "workload": out.workload, "seed": seed, "params": out.params}); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	for _, s := range out.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
