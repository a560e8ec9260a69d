package core

import (
	"sync/atomic"
	"time"

	"graphcache/internal/bitset"
)

// Monitor is the Statistics Monitor/Manager: cumulative operational
// metrics over a cache's lifetime, powering the Demonstrator's Sub-Iso
// Testing / Query Time / Cache Replacement panels. All counters are
// atomics so concurrent queries record their contributions without
// touching any cache lock; Snapshot reads are correspondingly lock-free
// (each counter is individually consistent, the set is approximate under
// concurrent load — exact once in-flight queries drain).
//
// The four counters an exact hit bumps are striped like dsLock's reader
// slots, so concurrent hits write different cache lines (hot-exact, two
// clients: +17 % q/s, 19 of 20 alternating runs); Snapshot sums them.
type Monitor struct {
	hot               [dsLockSlots]hotCounters
	subHitQueries     atomic.Int64 // queries with ≥1 sub-case hit
	superHitQueries   atomic.Int64 // queries with ≥1 super-case hit
	subHits           atomic.Int64 // total hit contributions
	superHits         atomic.Int64
	testsExecuted     atomic.Int64
	hitDetectIso      atomic.Int64 // iso tests against cached queries
	hitScanEntries    atomic.Int64 // entries examined during hit detection
	hitFullChecks     atomic.Int64 // label/path dominance merges run
	hitIndexPruned    atomic.Int64 // entries the feature index rejected outright
	admissions        atomic.Int64
	evictions         atomic.Int64
	windowTurns       atomic.Int64
	datasetAdds       atomic.Int64 // live dataset graphs added
	datasetRemoves    atomic.Int64 // live dataset graphs tombstoned
	maintenanceTests  atomic.Int64 // iso tests spent reconciling answer sets after additions
	logCompactions    atomic.Int64 // addition-log compactions that dropped ≥1 record
	logRecordsDropped atomic.Int64 // addition records dropped by compaction
	stateBodyFaults   atomic.Int64 // lazy-restore answer bodies faulted in from the snapshot file
	setRehashes       atomic.Int64 // answer sets hashed from scratch (hashSet)
	filterNs          atomic.Int64
	verifyNs          atomic.Int64
	windowTurnNs      atomic.Int64 // inside turnWindow
	mutationWaitNs    atomic.Int64 // AddGraph/RemoveGraph waiting for dsMu's write side
	mutationHoldNs    atomic.Int64 // AddGraph/RemoveGraph holding it
}

// hashSet returns set.Fingerprint(), counting the from-scratch hash
// (Snapshot.SetRehashes). It is the only way the kernel hashes an answer
// set, and its callers hold no lock: a set is hashed once, by the
// goroutine that built it, and from then on the fingerprint travels with
// the published state (answerState.fp).
//
//gclint:nolocks
func (m *Monitor) hashSet(set *bitset.Set) uint64 {
	m.setRehashes.Add(1)
	return set.Fingerprint()
}

// endTurn closes the clock pair a window turn opened.
func (m *Monitor) endTurn(start time.Time) { m.windowTurnNs.Add(int64(time.Since(start))) }

// hotCounters is one stripe, padded to two cache lines so no two stripes'
// counters share a line at any alignment.
type hotCounters struct {
	queries    atomic.Int64
	exactHits  atomic.Int64 // queries answered purely from cache
	testsSaved atomic.Int64
	hitNs      atomic.Int64
	_          [96]byte
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
	// detection; HitFullChecks counts the label-vector/path-feature
	// dominance merges that actually ran; HitIndexPruned counts entries
	// the feature index excluded from both hit directions before any
	// merge (always 0 with Config.IndexOff). Together they show what the
	// index saves: full checks and iso tests shrink, pruned grows.
	HitScanEntries, HitFullChecks, HitIndexPruned int64
	// Admissions / Evictions / WindowTurns are Cache-Manager counters.
	Admissions, Evictions, WindowTurns int64
	// DatasetAdds / DatasetRemoves count live dataset mutations;
	// MaintenanceTests counts the containment tests spent reconciling
	// cached answer sets after additions (eagerly at mutation time or
	// lazily at hit time) — the maintenance side of the churn ledger.
	DatasetAdds, DatasetRemoves, MaintenanceTests int64
	// FilterInserts / FilterRebuilds split how dataset additions
	// maintained the method's filter: incremental copy-on-write inserts
	// (O(graph)) versus full factory rebuilds (O(dataset)). Both read
	// from the method, so they survive across caches sharing one.
	FilterInserts, FilterRebuilds int64
	// AnswerBytes is the intern pool's account: total bytes of the
	// distinct canonical answer sets, each charged once however many
	// entries share it. InternHits counts admissions/true-ups that reused
	// an already-pooled set; InternMisses counts the ones that inserted a
	// new canonical. All three read from the cache's pool, not the Monitor.
	AnswerBytes              int64
	InternHits, InternMisses int64
	// AdditionLogLen is the method's current addition-log length;
	// LogCompactions counts the compactions that dropped at least one
	// record and LogRecordsDropped the records they reclaimed. Together
	// they show the log staying bounded: records enter with DatasetAdds
	// and leave once every resident entry has passed them.
	AdditionLogLen                    int
	LogCompactions, LogRecordsDropped int64
	// StateBodyFaults counts answer bodies faulted in from the snapshot
	// file after a lazy restore (RestoreStateLazy): 0 right after restore,
	// rising as queries first touch each restored entry's answers.
	StateBodyFaults int64
	// SetRehashes counts answer sets hashed from scratch for the intern
	// pool: one per admitted query, restored entry and faulted-in body,
	// always by the goroutine that built the set and outside every lock.
	// Dataset mutations, window turns and lazy reconciliation add nothing
	// to it — they derive the new fingerprint from the old one.
	SetRehashes int64
	// FilterTime, HitTime and VerifyTime split where query time went.
	FilterTime, HitTime, VerifyTime time.Duration
	// The stopped world, in nanoseconds. WindowTurnNs is the time spent
	// inside window turns (windowMu → policyMu → every shard write lock:
	// no admission, no sub/super crediting and no exact probe proceeds).
	// MutationWaitNs is how long AddGraph/RemoveGraph waited for dsMu's
	// write side — the drain of in-flight queries, during which new
	// queries already queue behind the writer — and MutationHoldNs how
	// long they then held it. One clock pair per turn or mutation; the
	// query path reads no clock for these. Divide by WindowTurns or by
	// DatasetAdds + DatasetRemoves for a mean.
	WindowTurnNs, MutationWaitNs, MutationHoldNs int64
}

// Snapshot returns a copy of the current counters.
func (m *Monitor) Snapshot() Snapshot {
	var queries, exactHits, testsSaved, hitNs int64
	for i := range m.hot {
		h := &m.hot[i]
		queries += h.queries.Load()
		exactHits += h.exactHits.Load()
		testsSaved += h.testsSaved.Load()
		hitNs += h.hitNs.Load()
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
		LogCompactions:    m.logCompactions.Load(),
		LogRecordsDropped: m.logRecordsDropped.Load(),
		StateBodyFaults:   m.stateBodyFaults.Load(),
		SetRehashes:       m.setRehashes.Load(),
		WindowTurnNs:      m.windowTurnNs.Load(),
		MutationWaitNs:    m.mutationWaitNs.Load(),
		MutationHoldNs:    m.mutationHoldNs.Load(),
		FilterTime:        time.Duration(m.filterNs.Load()),
		HitTime:           time.Duration(hitNs),
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
