package core

import (
	"sync/atomic"
	"time"
	"unsafe"
)

// Monitor is the Statistics Monitor/Manager: cumulative operational
// metrics over a cache's lifetime, powering the Demonstrator's Sub-Iso
// Testing / Query Time / Cache Replacement panels. All counters are
// atomics so concurrent queries record their contributions without
// touching any cache lock; Snapshot reads are correspondingly lock-free
// (each counter is individually consistent, the set is approximate under
// concurrent load — exact once in-flight queries drain).
//
// The three counters every query bumps, and the exact-hit credit table,
// are striped across padded slots picked by readSlot, so concurrent exact
// hits write different cache lines; Snapshot sums the counters and
// drainCreditsLocked empties the tables.
type Monitor struct {
	hot              [monitorSlots]hotCounters
	subHitQueries    atomic.Int64 // queries with ≥1 sub-case hit
	superHitQueries  atomic.Int64 // queries with ≥1 super-case hit
	subHits          atomic.Int64 // total hit contributions
	superHits        atomic.Int64
	testsExecuted    atomic.Int64
	hitDetectIso     atomic.Int64 // iso tests against cached queries
	hitScanEntries   atomic.Int64 // entries examined during hit detection
	hitFullChecks    atomic.Int64 // label/path dominance merges run
	hitIndexPruned   atomic.Int64 // entries the feature index rejected outright
	admissions       atomic.Int64
	evictions        atomic.Int64
	windowTurns      atomic.Int64
	datasetAdds      atomic.Int64 // live dataset graphs added
	datasetRemoves   atomic.Int64 // live dataset graphs tombstoned
	maintenanceTests atomic.Int64 // iso tests spent reconciling answer sets after additions
	filterNs         atomic.Int64
	hitNs            atomic.Int64 // sub/super hit detection; exact hits read no clock
	verifyNs         atomic.Int64
	windowTurnNs     atomic.Int64 // inside turnWindow
	mutationHoldNs   atomic.Int64 // inside AddGraph/RemoveGraph
}

const monitorSlots = 16

// readSlot picks a Monitor stripe from the calling goroutine's stack
// address: stable for one call site of one goroutine while its stack
// stays put, cheap, allocation-free and spread across slots. The address
// is hashed (Fibonacci hashing, top bits) rather than masked: a grown
// stack is aligned to its size, so the low bits of the addresses of
// goroutines with 32 KiB stacks agree, and bits 11–14 alone put 64 such
// goroutines on two stripes (TestReadSlotSpreadsGrownStacks).
func readSlot() int {
	var probe byte
	return int(uint64(uintptr(unsafe.Pointer(&probe))>>10) * 0x9E3779B97F4A7C15 >> 60)
}

// endTurn closes the clock pair a window turn opened.
func (m *Monitor) endTurn(start time.Time) { m.windowTurnNs.Add(int64(time.Since(start))) }

// endMutation closes the clock pair a dataset mutation opened.
func (m *Monitor) endMutation(start time.Time) { m.mutationHoldNs.Add(int64(time.Since(start))) }

// hotCounters is one stripe: the three per-query counters and the
// exact-hit credit table, padded so no two stripes share a cache line at
// any alignment.
type hotCounters struct {
	queries    atomic.Int64
	exactHits  atomic.Int64 // queries answered purely from cache
	testsSaved atomic.Int64
	credits    creditTable
	_          [104]byte
}

// creditTable counts exact hits per entry in the caller's stripe, so a
// hit writes no line of its entry or of the cache. Each word packs an
// entry ID+1 into its high creditIDBits bits and a hit count into the
// low creditCountBits; an entry's word is its ID mod creditWords. Words
// are claimed from zero and emptied only by drainCreditsLocked.
type creditTable [creditWords]atomic.Uint64

const (
	creditWords     = 64
	creditCountBits = 24
	creditIDBits    = 64 - creditCountBits
	creditCountMask = 1<<creditCountBits - 1
)

// add counts one exact hit on the entry with the given ID and reports
// whether it did: false when the entry's word holds another entry, is
// saturated, or the ID does not fit, and the caller credits the entry's
// own cell instead. Takes no lock.
func (t *creditTable) add(id int) bool {
	if uint64(id)+1 >= 1<<creditIDBits {
		return false
	}
	key := (uint64(id) + 1) << creditCountBits
	w := &t[uint64(id)%creditWords]
	for {
		old := w.Load()
		switch {
		case old == 0:
			if w.CompareAndSwap(0, key|1) {
				return true
			}
		case old&^creditCountMask != key || old&creditCountMask == creditCountMask:
			return false
		case w.CompareAndSwap(old, old+1):
			return true
		}
	}
}

// Snapshot is an immutable copy of the monitor's counters.
type Snapshot struct {
	// Queries is the number of executed queries.
	Queries int64
	// ExactHits counts queries served entirely from cache.
	ExactHits int64
	// SubHitQueries / SuperHitQueries count queries that had at least one
	// hit of that kind; SubHits / SuperHits count total contributions.
	SubHitQueries, SuperHitQueries int64
	SubHits, SuperHits             int64
	// TestsExecuted / TestsSaved count dataset sub-iso tests run vs
	// avoided thanks to the cache (savings vs the base Method M's C_M).
	TestsExecuted, TestsSaved int64
	// HitDetectionTests counts q↔h iso tests spent discovering hits —
	// the overhead side of the cache's ledger.
	HitDetectionTests int64
	// HitScanEntries counts cache entries examined during sub/super hit
	// detection; HitFullChecks counts the trie-row passes that actually
	// ran; HitIndexPruned counts entries the feature index excluded from
	// both hit directions before any row pass. Together they
	// show what the index saves: full checks and iso tests shrink, pruned
	// grows.
	HitScanEntries, HitFullChecks, HitIndexPruned int64
	// Admissions / Evictions / WindowTurns are Cache-Manager counters.
	Admissions, Evictions, WindowTurns int64
	// DatasetAdds / DatasetRemoves count live dataset mutations;
	// MaintenanceTests counts the containment tests spent reconciling
	// cached answer sets after additions (when a stale entry is next read:
	// at a hit or in Entries) — the maintenance side of the churn ledger.
	DatasetAdds, DatasetRemoves, MaintenanceTests int64
	// InternHits and InternMisses are always zero: answer sets are never
	// shared across entries. They stay declared only because the
	// benchmark harness reads them (benchmark/run.go:361) until ROADMAP
	// item 1 re-bases it, like Config's four inert fields.
	InternHits, InternMisses int64
	// FilterTime, HitTime and VerifyTime split where the time of the
	// non-exact queries went (Result's three stage times, summed). An
	// exact hit reads no clock and adds nothing to any of them.
	FilterTime, HitTime, VerifyTime time.Duration
	// WindowTurnNs is the time spent inside window turns, in
	// nanoseconds (under mu: no admission, no sub/super crediting and no
	// window probe proceeds; exact hits on admitted entries do).
	// MutationHoldNs is the time spent inside AddGraph/RemoveGraph calls,
	// which stop no query. One clock pair per turn or mutation; the query
	// path reads no clock for these. Divide by WindowTurns or by
	// DatasetAdds + DatasetRemoves for a mean.
	WindowTurnNs, MutationHoldNs int64
}

// Snapshot returns a copy of the current counters.
func (m *Monitor) Snapshot() Snapshot {
	var queries, exactHits, testsSaved int64
	for i := range m.hot {
		h := &m.hot[i]
		queries += h.queries.Load()
		exactHits += h.exactHits.Load()
		testsSaved += h.testsSaved.Load()
	}
	return Snapshot{
		Queries:           queries,
		ExactHits:         exactHits,
		SubHitQueries:     m.subHitQueries.Load(),
		SuperHitQueries:   m.superHitQueries.Load(),
		SubHits:           m.subHits.Load(),
		SuperHits:         m.superHits.Load(),
		TestsExecuted:     m.testsExecuted.Load(),
		TestsSaved:        testsSaved,
		HitDetectionTests: m.hitDetectIso.Load(),
		HitScanEntries:    m.hitScanEntries.Load(),
		HitFullChecks:     m.hitFullChecks.Load(),
		HitIndexPruned:    m.hitIndexPruned.Load(),
		Admissions:        m.admissions.Load(),
		Evictions:         m.evictions.Load(),
		WindowTurns:       m.windowTurns.Load(),
		DatasetAdds:       m.datasetAdds.Load(),
		DatasetRemoves:    m.datasetRemoves.Load(),
		MaintenanceTests:  m.maintenanceTests.Load(),
		WindowTurnNs:      m.windowTurnNs.Load(),
		MutationHoldNs:    m.mutationHoldNs.Load(),
		FilterTime:        time.Duration(m.filterNs.Load()),
		HitTime:           time.Duration(m.hitNs.Load()),
		VerifyTime:        time.Duration(m.verifyNs.Load()),
	}
}

// TestSpeedup returns the paper's speedup metric in sub-iso test numbers:
// base tests (executed + saved) over executed tests; 1 when nothing ran.
func (s Snapshot) TestSpeedup() float64 {
	if s.TestsExecuted == 0 {
		if s.TestsSaved > 0 {
			return float64(s.TestsSaved + 1) // all tests avoided
		}
		return 1
	}
	return float64(s.TestsExecuted+s.TestsSaved) / float64(s.TestsExecuted)
}
