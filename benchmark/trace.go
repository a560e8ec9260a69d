package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"graphcache/internal/core"
)

// Spans are recorded from the benchmark's own files, around the calls it
// makes into each layer; spans inside Execute are a later change.
type spanName uint8

const (
	spanRoundtrip   spanName = iota // client.roundtrip: one HTTP request as the client sees it
	spanHandlerName                 // server.handler: the wrapper around ServeHTTP
	spanExecute                     // core.Execute: one in-process call
	spanFilter                      // core.filter, core.hit, core.verify: the kernel's own
	spanHit                         // stage clocks, as durations under their parent
	spanVerify
)

var spanNames = [...]string{"client.roundtrip", "server.handler", "core.Execute", "core.filter", "core.hit", "core.verify"}

// span is one interval of one op; parent is an index into the same slice,
// -1 for a root. Times are nanoseconds since the traced phase began.
type span struct {
	op         int32
	name       spanName
	parent     int32
	start, end int64
}

// opRec is what the traced client saw of one query. The stage durations are
// the cache's counter deltas across the op; with one client they belong to
// this op alone.
type opRec struct {
	op                  int32
	class               hitClass
	turned              bool // a window turned during the op
	lat                 int64
	filter, hit, verify int64
}

// tracer keeps the spans of one traced phase in memory. The client and the
// handler wrapper both append, from different goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   []opRec
	prev  core.Snapshot
}

func newTracer(s *system, capacity int) *tracer {
	return &tracer{
		t0:    time.Now(),
		spans: make([]span, 0, 2*capacity),
		ops:   make([]opRec, 0, capacity),
		prev:  s.cache.Stats(),
	}
}

func (t *tracer) begin(op int, name spanName, parent int32) int32 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{op: int32(op), name: name, parent: parent, start: now})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(idx int32) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[idx].end = now
	t.mu.Unlock()
}

func (t *tracer) opOf(idx int32) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx < 0 || int(idx) >= len(t.spans) {
		return -1
	}
	return int(t.spans[idx].op)
}

// observe records a finished query. In process the op is one core.Execute
// span; over HTTP the round trip and handler spans are already there.
func (t *tracer) observe(s *system, op int, class hitClass, t0, t1 time.Time) {
	cur := s.cache.Stats()
	if !s.w.http {
		t.mu.Lock()
		t.spans = append(t.spans, span{op: int32(op), name: spanExecute, parent: -1,
			start: int64(t0.Sub(t.t0)), end: int64(t1.Sub(t.t0))})
		t.mu.Unlock()
	}
	t.ops = append(t.ops, opRec{
		op: int32(op), class: class, lat: int64(t1.Sub(t0)),
		turned: cur.WindowTurns > t.prev.WindowTurns,
		filter: int64(cur.FilterTime - t.prev.FilterTime),
		hit:    int64(cur.HitTime - t.prev.HitTime),
		verify: int64(cur.VerifyTime - t.prev.VerifyTime),
	})
	t.prev = cur
}

// traceSummary is what the spans say about the layers above the kernel.
type traceSummary struct {
	handlerUs, overheadUs, transportUs float64 // medians per request; 0 in process
	turnExtraUs                        float64
	turnedMisses, otherMisses          int
}

// finish hangs the kernel's stage durations under each op's innermost span
// (laid end to end from its start: the kernel reports durations, not
// instants) and reduces the spans to the per-layer figures.
func (t *tracer) finish() traceSummary {
	inner := make(map[int32]int32, len(t.ops)) // op → its core.Execute or server.handler span
	outer := make(map[int32]int32, len(t.ops)) // op → its client.roundtrip span
	for i, sp := range t.spans {
		switch sp.name {
		case spanExecute, spanHandlerName:
			inner[sp.op] = int32(i)
		case spanRoundtrip:
			outer[sp.op] = int32(i)
		}
	}
	var sum traceSummary
	var handler, overhead, transport hist
	var turned, other float64
	for _, r := range t.ops {
		if r.class == classMiss {
			if r.turned {
				turned += float64(r.lat)
				sum.turnedMisses++
			} else {
				other += float64(r.lat)
				sum.otherMisses++
			}
		}
		in, ok := inner[r.op]
		if !ok {
			continue
		}
		at := t.spans[in].start
		for _, child := range []struct {
			name spanName
			d    int64
		}{{spanFilter, r.filter}, {spanHit, r.hit}, {spanVerify, r.verify}} {
			if child.d > 0 {
				t.spans = append(t.spans, span{op: r.op, name: child.name, parent: in, start: at, end: at + child.d})
				at += child.d
			}
		}
		if out, ok := outer[r.op]; ok {
			h := t.spans[in].end - t.spans[in].start
			handler.record(h)
			overhead.record(h - r.filter - r.hit - r.verify)
			transport.record(t.spans[out].end - t.spans[out].start - h)
		}
	}
	sum.handlerUs = handler.quantile(0.5) / 1e3
	sum.overheadUs = overhead.quantile(0.5) / 1e3
	sum.transportUs = transport.quantile(0.5) / 1e3
	if sum.turnedMisses > 0 && sum.otherMisses > 0 {
		sum.turnExtraUs = (turned/float64(sum.turnedMisses) - other/float64(sum.otherMisses)) / 1e3
	}
	return sum
}

// writeJSONL writes one span per line; a span's id is its line number from 0.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, sp := range t.spans {
		err = enc.Encode(struct {
			ID     int    `json:"id"`
			Op     int32  `json:"op"`
			Name   string `json:"name"`
			Parent int32  `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i, sp.op, spanNames[sp.name], sp.parent, sp.start, sp.end})
		if err != nil {
			break
		}
	}
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
