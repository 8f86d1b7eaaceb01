package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// traceLayers are the modules whose call time the traced run reports.
// Each is one row of the Chrome trace; spans of the benchmark's own
// grouping ("bench.*") go on the row after them.
var traceLayers = []string{
	"assigner", "profiler", "costmodel", "failover", "runtime",
	"tensor", "nn", "quant", "online", "serve", "obs",
}

// tracer records one span around each call the benchmark makes into a
// layer of the program, straight into the program's obs.SpanRecorder:
// the span's name and start and duration, and as arguments its id, its
// parent span and the request or pass the call served. A nil *tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	rec  *obs.SpanRecorder
	next atomic.Int64
}

func newTracer() *tracer {
	rec := obs.NewSpanRecorder()
	for i, l := range traceLayers {
		rec.NameThread(i, l)
	}
	rec.NameThread(len(traceLayers), "bench")
	return &tracer{rec: rec}
}

// layerOf is the module a span's call went into (the name's prefix).
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

func rowOf(layer string) int {
	for i, l := range traceLayers {
		if l == layer {
			return i
		}
	}
	return len(traceLayers)
}

// openSpan is a started span; end records it.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	name   string // "<layer>.<call>", e.g. "assigner.Optimize"
	req    int
	start  float64 // seconds since the recorder's epoch
}

// begin opens a span under parent (0 = root). On a nil tracer it returns
// an inert span.
func (t *tracer) begin(name string, parent int64, req int) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.next.Add(1), parent: parent, name: name, req: req, start: t.rec.Since()}
}

func (o openSpan) end() {
	if o.t == nil {
		return
	}
	layer := layerOf(o.name)
	o.t.rec.Record(obs.Span{
		Name: o.name, Cat: layer, TID: rowOf(layer),
		Start: o.start, Dur: o.t.rec.Since() - o.start,
		Args: map[string]string{
			"id":     strconv.FormatInt(o.id, 10),
			"parent": strconv.FormatInt(o.parent, 10),
			"req":    strconv.Itoa(o.req),
		},
	})
}

// layerTimes sums each layer's span durations: the inclusive time of the
// calls the benchmark made into it, summed over concurrent calls too.
// busy is time spent in a layer that has no spans of its own, inside
// another layer's calls; it is moved from that layer to "profiler".
func (t *tracer) layerTimes(busy map[string]time.Duration) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.rec.Spans() {
		out[s.Cat] += time.Duration(s.Dur * float64(time.Second))
	}
	for layer, d := range busy {
		out["profiler"] += d
		out[layer] -= d
	}
	return out
}

// writeChrome writes the spans as a Chrome trace through the program's
// own exporter, one row per layer.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := t.rec.WriteChromeTrace(w); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
