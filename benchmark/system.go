package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/server"
)

// ggsxLen is the GGSX path length of Method M in every workload.
const ggsxLen = 3

// hitClass is how the cache served a query.
type hitClass uint8

const (
	classExact hitClass = iota
	classSubSuper
	classMiss
	numClasses
)

// system is the program under test as one workload drives it: the dataset,
// Method M, the cache, and for daemon-churn the HTTP server in front of it.
type system struct {
	w       *workload
	dataset []*graph.Graph // as generated, before any mutation
	method  *ftv.Method
	cache   *core.Cache
	ccfg    core.Config
	tgt     target

	srv     *httptest.Server
	handler http.Handler // the server behind the span wrapper
	hc      *http.Client
	tr      atomic.Pointer[tracer] // non-nil while a traced phase runs

	// Mutation state. Only the one client that issues mutations touches
	// added and mutations; mutSeq is odd while a mutation is in flight.
	added     []int
	mutations int
	mutSeq    atomic.Int64

	indexBuild time.Duration // NewGGSXMethod
	indexBytes uint64        // heap growth across it, when setUp sizes the heap
	poolBytes  uint64        // heap growth across workload generation, likewise
}

// runConfig is what one benchmark run is asked to do.
type runConfig struct {
	workload string
	seed     int64 // op order, mutation graphs, oracle sample
	seconds  float64
	nproc    int
	sz       sizes
}

// cacheConfig is the configuration every workload shares: the repo's
// defaults at a capacity that matters.
func cacheConfig(capacity int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Capacity = capacity
	return cfg
}

// setUp builds everything a run needs from the seeds and warms it up:
// dataset, GGSX index, workload, cache, server, and an untimed warm-up that
// fills the cache and grows the heap. Its duration is setup_s. sizeHeap adds
// collections around the index build and the workload generation to size
// what each leaves on the heap.
func setUp(rc runConfig, sizeHeap bool, tally *tally) (*system, error) {
	dataset := gen.Molecules(rand.New(rand.NewSource(dataSeed)), rc.sz.dataset, gen.DefaultMoleculeConfig())
	s := &system{dataset: dataset, ccfg: cacheConfig(rc.sz.capacity)}
	grownBy := func(build func()) uint64 {
		if !sizeHeap {
			build()
			return 0
		}
		before := heapAfterGC()
		build()
		return heapAfterGC() - before
	}

	s.indexBytes = grownBy(func() {
		t0 := time.Now()
		s.method = ftv.NewGGSXMethod(slices.Clone(dataset), ggsxLen)
		s.indexBuild = time.Since(t0)
	})
	var err error
	s.poolBytes = grownBy(func() {
		s.w, err = newWorkload(rc.workload, dataset, rc.seed, rc.sz, rc.seconds/instances)
	})
	if err != nil {
		return nil, err
	}
	w := s.w
	if s.cache, err = core.New(s.method, s.ccfg); err != nil {
		return nil, err
	}
	s.tgt = inProcess{s}
	if w.http {
		s.handler = spanHandler{s, server.New(s.cache)}
		s.srv = httptest.NewServer(s.handler)
		s.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: rc.nproc}}
		s.tgt = overHTTP{s}
	}
	warm := runPhase(s, phaseSpec{seq: w.warm, clients: rc.nproc, nproc: rc.nproc})
	tally.add(warm)
	return s, nil
}

func (s *system) close() {
	if s.srv != nil {
		s.hc.CloseIdleConnections()
		s.srv.Close()
	}
}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// target is how clients reach the cache: by calling it, or over HTTP.
type target interface {
	query(c *client, p *pattern, op int) (hitClass, error)
	add(c *client, a *addition) (id int, err error)
	remove(c *client, id int) error
}

type inProcess struct{ s *system }

func (t inProcess) query(c *client, p *pattern, op int) (hitClass, error) {
	res, err := t.s.cache.Execute(p.g, p.qt)
	if err != nil {
		return classMiss, err
	}
	c.last = res
	return classOf(res), nil
}

func (t inProcess) add(_ *client, a *addition) (int, error) { return t.s.cache.AddGraph(a.g) }
func (t inProcess) remove(_ *client, id int) error          { return t.s.cache.RemoveGraph(id) }

func classOf(res *core.Result) hitClass {
	switch {
	case res.ExactHit:
		return classExact
	case len(res.Hits) > 0:
		return classSubSuper
	}
	return classMiss
}

type overHTTP struct{ s *system }

// spanHeader carries the index of the client's round-trip span, so that
// the handler wrapper can record its span as that one's child.
const spanHeader = "X-Bench-Span"

// do sends one request on the client's keep-alive connection and reads the
// whole reply into c.buf. Any status but want is an error.
func (t overHTTP) do(c *client, method, path string, body []byte, want int, parent int32) error {
	req, err := http.NewRequest(method, t.s.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if parent >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(parent)))
	}
	resp, err := t.s.hc.Do(req)
	if err != nil {
		return err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	c.reqBytes += int64(len(body))
	c.respBytes += int64(c.buf.Len())
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, resp.StatusCode, want, c.buf.Bytes())
	}
	return nil
}

// The server indents its JSON, so the class of a reply can be read from two
// byte scans instead of a 10 KB decode on the cores the server needs.
var (
	exactMark  = []byte(`"exactHit": true`)
	noHitsMark = []byte(`"hits": []`)
)

func (t overHTTP) query(c *client, p *pattern, op int) (hitClass, error) {
	parent := int32(-1)
	tr := t.s.tr.Load()
	if tr != nil {
		parent = tr.begin(op, spanRoundtrip, -1)
	}
	err := t.do(c, http.MethodPost, "/api/query", p.body, http.StatusOK, parent)
	if tr != nil {
		tr.end(parent)
	}
	if err != nil {
		return classMiss, err
	}
	switch reply := c.buf.Bytes(); {
	case bytes.Contains(reply, exactMark):
		return classExact, nil
	case bytes.Contains(reply, noHitsMark):
		return classMiss, nil
	}
	return classSubSuper, nil
}

func (t overHTTP) add(c *client, a *addition) (int, error) {
	if err := t.do(c, http.MethodPost, "/api/dataset/graphs", a.body, http.StatusCreated, -1); err != nil {
		return 0, err
	}
	var reply struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &reply); err != nil {
		return 0, fmt.Errorf("add graph reply: %w", err)
	}
	return reply.ID, nil
}

func (t overHTTP) remove(c *client, id int) error {
	return t.do(c, http.MethodDelete, "/api/dataset/graphs/"+strconv.Itoa(id), nil, http.StatusOK, -1)
}

// answers re-reads the last query reply as an answer list, for the oracle.
func (c *client) answers() ([]int, error) {
	if c.last != nil {
		return c.last.Answers.Indices(), nil
	}
	var reply struct {
		Answers []int `json:"answers"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &reply); err != nil {
		return nil, fmt.Errorf("query reply: %w", err)
	}
	return reply.Answers, nil
}

// spanHandler is the benchmark-owned wrapper around the server's ServeHTTP:
// while a traced phase runs it records one server.handler span per request
// that names its parent.
type spanHandler struct {
	s    *system
	next http.Handler
}

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.s.tr.Load()
	hdr := r.Header.Get(spanHeader)
	if tr == nil || hdr == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, err := strconv.Atoi(hdr)
	if err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	idx := tr.begin(tr.opOf(int32(parent)), spanHandlerName, int32(parent))
	h.next.ServeHTTP(w, r)
	tr.end(idx)
}

// mutate issues the next dataset mutation through tgt. After two opening
// adds, removes and adds alternate and a remove takes the oldest graph an
// earlier add put in, so the live dataset stays the same size.
func (s *system) mutate(tgt target, c *client) (isAdd bool, err error) {
	s.mutSeq.Add(1)
	defer s.mutSeq.Add(1)
	k := s.mutations
	s.mutations++
	if k < 2 || k%2 == 1 {
		a := &s.w.adds[(k+1)/2%len(s.w.adds)]
		id, err := tgt.add(c, a)
		if err == nil {
			s.added = append(s.added, id)
		}
		return true, err
	}
	id := s.added[0]
	s.added = s.added[1:]
	return false, tgt.remove(c, id)
}
