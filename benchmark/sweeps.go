package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/ftv"
)

// sibling is an in-process system over the same workload with a cache of
// its own, for the sweeps. It has its own mutation state.
func (s *system) sibling(method *ftv.Method, cfg core.Config, pool []pattern) (*system, error) {
	cache, err := core.New(method, cfg)
	if err != nil {
		return nil, err
	}
	w := *s.w
	w.http = false
	if pool != nil {
		w.pool = pool
	}
	sib := &system{w: &w, dataset: s.dataset, method: method, cache: cache, ccfg: cfg}
	sib.tgt = inProcess{sib}
	return sib, nil
}

// capacitySweep is the hit-detection cost curve in resident entries: fresh
// caches filled to each level from one large pool, then never-seen queries
// from the same pool timed against each. detect_us is Result.HitTime and
// scan_entries the HitScanEntries delta, both over the queries that were
// not exact hits. Fill time is noted, not measured.
func capacitySweep(s *system, rc runConfig, r *report) error {
	levels := rc.sz.sweepLevels
	top := levels[len(levels)-1]
	pool, err := newPool(rand.New(rand.NewSource(dataSeed+11)), s.dataset, top+top/5, 0.8)
	if err != nil {
		return err
	}
	unseen := pool[len(pool)-rc.sz.sweepQueries:]
	fill := make([]uint32, len(pool)-len(unseen))
	for i := range fill {
		fill[i] = uint32(i)
	}
	t0 := time.Now()
	for i, level := range levels {
		cfg := s.ccfg
		cfg.Capacity = level
		sib, err := s.sibling(s.method, cfg, pool)
		if err != nil {
			return err
		}
		r.tally.add(runPhase(sib, phaseSpec{seq: fill[:min(level+level/5, len(fill))], clients: rc.nproc, nproc: rc.nproc}))
		resident := sib.cache.Len()

		var detect time.Duration
		var scanned, n int64
		for _, p := range unseen {
			before := sib.cache.Stats().HitScanEntries
			res, err := sib.cache.Execute(p.g, p.qt)
			r.tally.check(err)
			if err == nil && !res.ExactHit {
				detect += res.HitTime
				scanned += sib.cache.Stats().HitScanEntries - before
				n++
			}
		}
		// The metric names carry the full-scale levels whatever the scale.
		name := []string{"100", "1000", "10000"}[i]
		r.vals["core.detect_us_cap"+name] = ratio(float64(detect), float64(n)) / 1e3
		r.vals["core.scan_entries_cap"+name] = ratio(float64(scanned), float64(n))
		r.stamp.Notes["sweep_resident_cap"+name] = float64(resident)
	}
	r.stamp.Notes["capacity_sweep_seconds"] = time.Since(t0).Seconds()
	return nil
}

// alternative is one configuration the alternatives sweep replays.
type alternative struct {
	name string
	set  func(*core.Config)
}

// replayAlternatives replays the first ops of the workload in process
// against each alternative, three interleaved rounds with nproc clients and
// one round of half the ops with one client. Every replay starts from the same warm cache,
// restored from the snapshot taken after set-up; a workload that mutates
// gets a method of its own per replay.
func replayAlternatives(s *system, rc runConfig, warm []byte, alts []alternative, ops int, r *report) (map[string][]*phaseOut, error) {
	shared := ftv.NewGGSXMethod(slices.Clone(s.dataset), ggsxLen)
	replay := func(alt alternative, clients, ops int) (*phaseOut, error) {
		method := shared
		if s.w.mutEvery > 0 {
			method = ftv.NewGGSXMethod(slices.Clone(s.dataset), ggsxLen)
		}
		cfg := s.ccfg
		alt.set(&cfg)
		sib, err := s.sibling(method, cfg, nil)
		if err != nil {
			return nil, err
		}
		if err := sib.cache.ReadState(bytes.NewReader(warm)); err != nil {
			return nil, fmt.Errorf("alternative %s: restoring the warm cache: %w", alt.name, err)
		}
		sp := timedSpec(sib, rc, clients)
		sp.maxOps = ops
		out := runPhase(sib, sp)
		r.tally.add(out)
		return out, nil
	}
	outs := map[string][]*phaseOut{}
	for round := 0; round < 3; round++ {
		for _, alt := range alts {
			out, err := replay(alt, rc.nproc, ops)
			if err != nil {
				return nil, err
			}
			outs[alt.name] = append(outs[alt.name], out)
		}
	}
	for _, alt := range alts {
		out, err := replay(alt, 1, ops/2)
		if err != nil {
			return nil, err
		}
		qps := make([]float64, 0, 3)
		for _, o := range outs[alt.name] {
			qps = append(qps, o.qps())
		}
		r.vals["core.alt_"+alt.name+"_qps"] = median(qps)
		r.stamp.Notes["alt_"+alt.name+"_qps_min"] = slices.Min(qps)
		r.stamp.Notes["alt_"+alt.name+"_qps_max"] = slices.Max(qps)
		r.stamp.Notes["alt_"+alt.name+"_qps_one_client"] = out.qps()
	}
	return outs, nil
}

// engineSweep is the evidence for keeping or deleting the alternative
// engines: the same ops under each. When an engine is deleted its row goes
// with it.
func engineSweep(s *system, rc runConfig, warm []byte, r *report) error {
	_, err := replayAlternatives(s, rc, warm, []alternative{
		{"default", func(*core.Config) {}},
		{"serialized", func(c *core.Config) { c.Serialized = true }},
		{"shared_window", func(c *core.Config) { c.SharedWindow = true }},
		{"index_off", func(c *core.Config) { c.IndexOff = true }},
	}, rc.sz.altOps, r)
	return err
}

// reconcileSweep replays daemon-churn's ops, mutations included, in process
// with additions reconciled eagerly (the default) and lazily.
func reconcileSweep(s *system, rc runConfig, warm []byte, r *report) error {
	outs, err := replayAlternatives(s, rc, warm, []alternative{
		{"eager_reconcile", func(*core.Config) {}},
		{"lazy_reconcile", func(c *core.Config) { c.LazyReconcile = true }},
	}, 3*rc.sz.altOps, r)
	if err != nil {
		return err
	}
	for name, metric := range map[string]string{
		"eager_reconcile": "core.alt_eager_add_graph_p50_us",
		"lazy_reconcile":  "core.alt_lazy_add_graph_p50_us",
	} {
		var adds samples
		for _, o := range outs[name] {
			adds = append(adds, o.add...)
		}
		r.vals[metric] = adds.quantile(0.5) / 1e3
	}
	return nil
}
