package main

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// epoch anchors now(); time.Since on a monotonic reading costs one clock
// read, which is what every span boundary and latency sample pays.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// Span kinds: one per layer boundary the benchmark can see from outside
// the library. A call span is the whole public call; the others are its
// children when the traced pass splits it.
type spanKind uint8

const (
	spanCall spanKind = iota
	spanPin
	spanUnpin
	spanMapBody
	spanQueueBody
	spanBatchBody
	numSpans
)

var spanNames = [numSpans]string{"call", "lease.pin", "lease.unpin", "hashmap.body", "wfqueue.body", "batch.body"}

// spanRec is one recorded span. parent is -1 for a call span and the
// call's kind otherwise; op identifies the call the span belongs to.
type spanRec struct {
	start, end int64
	op         uint64
	kind       spanKind
	parent     int8
}

// spanRing bounds the memory full span records take: it keeps the most
// recent records, so recording costs the same at any window length.
const spanRing = 1 << 14

// recordEvery is the call sampling stride for full span records; self
// times are summed for every call.
const recordEvery = 64

// tracer is one worker's span recorder. Only its worker writes it while a
// window runs; the main goroutine reads it after the workers have joined.
type tracer struct {
	self  [numSpans]int64
	ring  []spanRec
	next  int
	op    uint64
	keep  bool
	start int64
	child int64
}

func newTracer() *tracer { return &tracer{ring: make([]spanRec, 0, spanRing)} }

// begin opens call op and returns its start time.
func (t *tracer) begin(op uint64) int64 {
	t.op, t.keep, t.child = op, op%recordEvery == 0, 0
	t.start = now()
	return t.start
}

// span closes child span k that started at start and returns its end,
// which is where the next child starts.
func (t *tracer) span(k spanKind, start int64) int64 {
	end := now()
	d := end - start
	t.self[k] += d
	t.child += d
	if t.keep {
		t.record(spanRec{start: start, end: end, op: t.op, kind: k, parent: int8(spanCall)})
	}
	return end
}

// end closes the current call; its self time is whatever its children
// did not cover.
func (t *tracer) end() {
	end := now()
	t.self[spanCall] += end - t.start - t.child
	if t.keep {
		t.record(spanRec{start: t.start, end: end, op: t.op, kind: spanCall, parent: -1})
	}
}

func (t *tracer) record(r spanRec) {
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, r)
		return
	}
	t.ring[t.next] = r
	t.next = (t.next + 1) % len(t.ring)
}

// traceSource is one worker's recorder, labelled for the trace file.
type traceSource struct {
	workload string
	pid, tid int
	tr       *tracer
}

// writeChromeTrace writes the recorded spans as Chrome trace-event JSON
// (load it in chrome://tracing or Perfetto): one process per workload,
// one thread per worker.
func writeChromeTrace(w io.Writer, srcs []traceSource) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"traceEvents":[`)
	sep := ""
	for _, s := range srcs {
		fmt.Fprintf(bw, `%s{"name":"process_name","ph":"M","pid":%d,"args":{"name":%q}}`, sep, s.pid, s.workload)
		sep = ","
		for _, r := range s.tr.ring {
			parent := "none"
			if r.parent >= 0 {
				parent = spanNames[r.parent]
			}
			fmt.Fprintf(bw, `,{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"op":%d,"parent":%q}}`,
				spanNames[r.kind], float64(r.start)/1e3, float64(r.end-r.start)/1e3, s.pid, s.tid, r.op, parent)
		}
	}
	fmt.Fprint(bw, "]}\n")
	return bw.Flush()
}
