package main

import (
	"bytes"
	"sync"
	"time"

	"graphcache/internal/core"
)

// client is one closed-loop caller: it issues its next op only when the
// previous one has returned. Each client keeps its own histograms, merged
// when the phase ends.
type client struct {
	lat       hist             // every successful query
	class     [numClasses]hist // the same samples by hit class
	add       samples          // successful dataset adds
	remove    samples          // successful dataset removes
	duringMut hist             // queries whose interval overlapped a mutation

	ops, failed         int64
	cutShort            bool          // stopped by the phase's deadline
	busy                time.Duration // time inside successful queries
	reqBytes, respBytes int64         // HTTP bodies

	buf      bytes.Buffer // last HTTP reply
	last     *core.Result // last in-process result
	firstErr error
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// phaseSpec says which ops a phase runs and who runs them. Client k of n
// takes ops k, k+n, k+2n, … of seq[from:], so the work is the same on every
// run. A phase ends when maxOps are issued or seq is exhausted. deadline is
// the guard of a timed phase against a machine so slow that the run would
// outlast what its caller allows: a client that passes it stops early.
type phaseSpec struct {
	seq      []uint32
	from     int
	clients  int
	nproc    int // with mutEvery, fixes which ops are mutations at any client count
	mutEvery int
	maxOps   int
	deadline time.Duration
}

// phaseOut is what a phase measured: the clients' samples merged, the wall
// time, and the cache's counters on either side.
type phaseOut struct {
	client
	wall          time.Duration
	before, after core.Snapshot
}

// qps is completed queries per second of the phase's wall time.
func (o *phaseOut) qps() float64 { return float64(o.lat.n) / o.wall.Seconds() }

func runPhase(s *system, sp phaseSpec) *phaseOut {
	out := &phaseOut{before: s.cache.Stats()}
	clients := make([]*client, sp.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for k := range clients {
		clients[k] = &client{}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			clients[k].loop(s, sp, k, start)
		}(k)
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.after = s.cache.Stats()
	for _, c := range clients {
		out.lat.merge(&c.lat)
		for i := range c.class {
			out.class[i].merge(&c.class[i])
		}
		out.add = append(out.add, c.add...)
		out.remove = append(out.remove, c.remove...)
		out.duringMut.merge(&c.duringMut)
		out.ops += c.ops
		out.failed += c.failed
		out.cutShort = out.cutShort || c.cutShort
		out.busy += c.busy
		out.reqBytes += c.reqBytes
		out.respBytes += c.respBytes
		if out.firstErr == nil {
			out.firstErr = c.firstErr
		}
	}
	return out
}

func (c *client) loop(s *system, sp phaseSpec, k int, start time.Time) {
	period := sp.mutEvery * sp.nproc
	for i := k; sp.maxOps == 0 || i < sp.maxOps; i += sp.clients {
		pos := sp.from + i
		if pos >= len(sp.seq) {
			return
		}
		c.ops++
		var done time.Time
		if period > 0 && (sp.from+i)%period == 0 {
			t0 := time.Now()
			isAdd, err := s.mutate(s.tgt, c)
			done = time.Now()
			switch {
			case err != nil:
				c.fail(err)
			case isAdd:
				c.add.record(int64(done.Sub(t0)))
			default:
				c.remove.record(int64(done.Sub(t0)))
			}
		} else {
			m0 := s.mutSeq.Load()
			t0 := time.Now()
			class, err := s.tgt.query(c, &s.w.pool[sp.seq[pos]], sp.from+i)
			done = time.Now()
			if err != nil {
				c.fail(err)
			} else {
				lat := done.Sub(t0)
				c.busy += lat
				c.lat.record(int64(lat))
				c.class[class].record(int64(lat))
				if m0&1 == 1 || s.mutSeq.Load() != m0 {
					c.duringMut.record(int64(lat))
				}
				if tr := s.tr.Load(); tr != nil {
					tr.observe(s, sp.from+i, class, t0, done)
				}
			}
		}
		if sp.deadline > 0 && done.Sub(start) >= sp.deadline {
			c.cutShort = true
			return
		}
	}
}

// tally counts every op the run attempted, in any phase, and how many
// failed. A failed op has no latency sample anywhere.
type tally struct {
	attempted, failed int64
	firstErr          error
}

func (t *tally) merge(attempted, failed int64, err error) {
	t.attempted += attempted
	t.failed += failed
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) add(o *phaseOut) { t.merge(o.ops, o.failed, o.firstErr) }

// check counts one op outside a phase.
func (t *tally) check(err error) {
	if err != nil {
		t.merge(1, 1, err)
	} else {
		t.merge(1, 0, nil)
	}
}
