package main

import (
	"bufio"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names: one per call the benchmark makes into a layer. Client spans
// time calls into mlkv (a Session, or a train.Handle); server spans time
// calls the server makes into kv (through the timing store) and the
// frames it reads from and writes to its connections.
const (
	spanGet = iota
	spanGetBatch
	spanPut
	spanPutBatch
	spanPeek
	spanLookahead
	spanKVGet
	spanKVGetBatch
	spanKVPut
	spanKVPutBatch
	spanKVPeek
	spanKVLookahead
	spanWireRead
	spanWireWrite
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"mlkv.get", "mlkv.getbatch", "mlkv.put", "mlkv.putbatch", "mlkv.peek", "mlkv.lookahead",
	"kv.get", "kv.getbatch", "kv.put", "kv.putbatch", "kv.peek", "kv.lookahead",
	"wire.read", "wire.write",
}

// clientSpan reports whether the span is a call into mlkv.
func clientSpan(name uint8) bool { return name < spanKVGet }

// span is one timed call. Times are nanoseconds since the tracer's epoch.
// step groups the client spans of one step (a GetBatch and its PutBatch);
// server spans get their parent when the trace is attributed.
type span struct {
	id, parent, step int64
	start, end       int64
	name             uint8
	conn             int32 // caller goroutine, or server connection
}

// maxSpans caps the spans kept in memory (~24 MB); later spans are
// counted but not kept, so a long traced run cannot exhaust memory.
const maxSpans = 1 << 19

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced run pays one nil check per call.
type tracer struct {
	epoch   time.Time
	off     atomic.Bool
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.off.Store(true)
	return t
}

// record keeps one span for a call that started at t0 and returns now.
func (t *tracer) record(name uint8, conn int32, step int64, t0 time.Time) {
	if t == nil || t.off.Load() {
		return
	}
	end := time.Since(t.epoch)
	sp := span{
		id: t.nextID.Add(1), step: step, name: name, conn: conn,
		start: int64(t0.Sub(t.epoch)), end: int64(end),
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, sp)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// recording turns recording on or off; a new tracer is off.
func (t *tracer) recording(on bool) {
	if t != nil {
		t.off.Store(!on)
	}
}

// traceSummary is what the attributed trace says about one run.
type traceSummary struct {
	spans, dropped int
	attributed     int       // server spans given a client parent
	server         int       // server spans
	clientBusy     float64   // s, sum of client span durations
	clientSelf     float64   // s, client time not covered by attributed children
	selfByName     []float64 // s, self time per span name
}

// attribute gives every server span the client span that contains it in
// time as its parent — the latest-starting one when two callers' spans
// both contain it, since a closed-loop caller has at most one call in
// flight and the later call is the one whose frame the server is
// handling. It then computes self times: a span's duration minus the part
// of it covered by its children.
func (t *tracer) attribute() traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := traceSummary{spans: len(t.spans), dropped: int(t.dropped), selfByName: make([]float64, numSpanNames)}
	// Each caller has at most one call in flight, so per caller the only
	// candidate container is its last span starting before the server
	// span does.
	byCaller := make(map[int32][]int)
	for i := range t.spans {
		if sp := &t.spans[i]; clientSpan(sp.name) {
			byCaller[sp.conn] = append(byCaller[sp.conn], i)
		}
	}
	for _, idx := range byCaller {
		slices.SortFunc(idx, func(a, b int) int { return cmp64(t.spans[a].start, t.spans[b].start) })
	}
	children := make(map[int][]int)
	for i := range t.spans {
		sp := &t.spans[i]
		if clientSpan(sp.name) {
			continue
		}
		sum.server++
		best := -1
		for _, idx := range byCaller {
			j, _ := slices.BinarySearchFunc(idx, sp.start+1, func(c int, v int64) int { return cmp64(t.spans[c].start, v) })
			if j == 0 {
				continue
			}
			c := idx[j-1]
			if t.spans[c].end >= sp.end && (best < 0 || t.spans[c].start > t.spans[best].start) {
				best = c
			}
		}
		if best >= 0 {
			sp.parent = t.spans[best].id
			sp.step = t.spans[best].step
			children[best] = append(children[best], i)
			sum.attributed++
		}
	}
	for i := range t.spans {
		sp := &t.spans[i]
		d := float64(sp.end-sp.start) / 1e9
		self := d
		if clientSpan(sp.name) {
			sum.clientBusy += d
			self -= float64(covered(t.spans, children[i])) / 1e9
			sum.clientSelf += self
		}
		sum.selfByName[sp.name] += self
	}
	return sum
}

// covered is the length of the union of the given spans' intervals.
func covered(spans []span, idx []int) int64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, len(idx))
	for k, i := range idx {
		iv[k] = [2]int64{spans[i].start, spans[i].end}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp64(a[0], b[0]) })
	var total int64
	cs, ce := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > ce {
			total += ce - cs
			cs, ce = v[0], v[1]
		} else if v[1] > ce {
			ce = v[1]
		}
	}
	return total + ce - cs
}

func cmp64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// write emits one JSON object per span, after attribute.
func (t *tracer) write(w *bufio.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b []byte
	for _, sp := range t.spans {
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, sp.id, 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, sp.parent, 10)
		b = append(b, `,"step":`...)
		b = strconv.AppendInt(b, sp.step, 10)
		b = append(b, `,"name":"`...)
		b = append(b, spanNames[sp.name]...)
		b = append(b, `","conn":`...)
		b = strconv.AppendInt(b, int64(sp.conn), 10)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, sp.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, sp.end, 10)
		b = append(b, "}\n"...)
		w.Write(b)
	}
}
