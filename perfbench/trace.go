package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"statdb/internal/storage"
)

// span is one timed interval recorded by the benchmark's own code: a
// root per op, a child per statement, children from the device and
// event-log wrappers, and replays of layer entry points recorded with
// no parent so they never inflate a root.
type span struct {
	name   string
	op     int32 // op index; probeOp for end-of-run probes
	parent int32 // enclosing span index, -1 for a top-level span
	start  int64 // ns since the tracer's base
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

// probeOp marks spans recorded by the end-of-run probes.
const probeOp = -1

// tracer keeps spans in memory until the run ends. It is off during
// untraced phases, where begin costs one uncontended lock and end none.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	on    bool    // guarded by mu
	op    int32   // guarded by mu
	stack []int32 // guarded by mu; open spans, innermost last
	spans []span  // guarded by mu
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) setOp(op int32) {
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) begin(name string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	now := int64(time.Since(t.base))
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, start: now})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	t.stack = t.stack[:len(t.stack)-1]
}

// timed runs fn inside a span named name.
func (t *tracer) timed(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// writeSpans writes every recorded span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		rec := struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Op     int32  `json:"op"`
			Parent int32  `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i, s.name, s.op, s.parent, s.start, s.end}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedDevice is the benchmark-owned wrapper around the device handed to
// view.AttachStoreDevice: every page transfer becomes a storage.read or
// storage.write span while tracing is on.
type timedDevice struct {
	storage.Device
	tr *tracer
}

func (d *timedDevice) ReadPage(id storage.PageID, buf []byte) error {
	s := d.tr.begin("storage.read")
	err := d.Device.ReadPage(id, buf)
	d.tr.end(s)
	return err
}

func (d *timedDevice) WritePage(id storage.PageID, buf []byte) error {
	s := d.tr.begin("storage.write")
	err := d.Device.WritePage(id, buf)
	d.tr.end(s)
	return err
}

// ChargeTicks forwards retry backoff to the wrapped device, so the
// wrapper leaves the buffer pool's cost accounting unchanged.
func (d *timedDevice) ChargeTicks(n int64) {
	if tc, ok := d.Device.(storage.TickCharger); ok {
		tc.ChargeTicks(n)
	}
}

// timedWriter wraps the event log's sink: each record write becomes an
// obs.sink span while tracing is on.
type timedWriter struct {
	w  io.Writer
	tr *tracer
}

func (w timedWriter) Write(p []byte) (int, error) {
	s := w.tr.begin("obs.sink")
	n, err := w.w.Write(p)
	w.tr.end(s)
	return n, err
}

// breakdown splits the traced ops' time into layers. Every root span
// is op = parse + view + execSelf + device + sink + remainder, where
// parse and view are replay estimates of work inside the statements,
// execSelf is the rest of the statements' self time, device and sink
// are the wrapper spans inside the root, and remainder is the root's
// own self time (the client loop between statements).
type breakdown struct {
	ops       int
	op        float64            // mean root duration, µs
	parse     float64            // mean per-op query.Parse replays, µs
	view      float64            // mean per-op view-layer replay self time, µs
	execSelf  float64            // statements' self time minus parse and view, µs
	device    float64            // device spans inside roots, µs per op
	sink      float64            // event-log sink spans inside roots, µs per op
	remainder float64            // root self time, µs per op
	unlogged  float64            // mean per-op unlogged-executor replay, µs
	stmt      map[string]float64 // mean statement span per op by name, µs
	self      map[string]float64 // mean self time per span by name, µs
}

// analyse computes self times (a span minus its direct children) and
// the per-op layer breakdown.
func analyse(spans []span) (breakdown, error) {
	child := make([]int64, len(spans))
	top := make([]int32, len(spans))
	for i, s := range spans {
		if s.end < s.start {
			return breakdown{}, fmt.Errorf("span %s (#%d) never ended", s.name, i)
		}
		top[i] = int32(i)
		if s.parent >= 0 {
			child[s.parent] += s.dur()
			top[i] = top[s.parent]
		}
	}
	b := breakdown{stmt: map[string]float64{}, self: map[string]float64{}}
	var stmtSelf int64
	sums := map[string]int64{}
	counts := map[string]int{}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var op, parse, view, device, sink, remainder, unlogged int64
	for i, s := range spans {
		self := s.dur() - child[i]
		sums[s.name] += self
		counts[s.name]++
		inRoot := spans[top[i]].name == "op" && top[i] != int32(i)
		switch {
		case s.name == "op":
			b.ops++
			op += s.dur()
			remainder += self
		case inRoot && (s.name == "storage.read" || s.name == "storage.write"):
			device += s.dur()
		case inRoot && s.name == "obs.sink":
			sink += s.dur()
		case inRoot && s.parent == top[i]:
			stmtSelf += self
			b.stmt[s.name] += us(s.dur())
		case s.parent < 0 && s.op != probeOp && s.name == "query.parse":
			parse += self
		case s.parent < 0 && s.op != probeOp && strings.HasPrefix(s.name, "view."):
			view += self
		case s.parent < 0 && s.op != probeOp && s.name == "query.unlogged":
			unlogged += s.dur()
		}
	}
	if b.ops == 0 {
		return b, fmt.Errorf("no traced ops")
	}
	n := float64(b.ops)
	b.op = us(op) / n
	b.parse = us(parse) / n
	b.view = us(view) / n
	b.execSelf = us(stmtSelf-parse-view) / n
	b.device = us(device) / n
	b.sink = us(sink) / n
	b.remainder = us(remainder) / n
	b.unlogged = us(unlogged) / n
	for k := range b.stmt {
		b.stmt[k] /= n
	}
	for k, v := range sums {
		b.self[k] = us(v) / float64(counts[k])
	}
	sum := b.parse + b.view + b.execSelf + b.device + b.sink + b.remainder
	if d := sum - b.op; d > 1e-6*b.op || -d > 1e-6*b.op {
		return b, fmt.Errorf("layer self times sum to %.3f µs, traced op is %.3f µs", sum, b.op)
	}
	return b, nil
}
