package graphcache

import (
	"io"
	"math/rand"

	"graphcache/internal/core"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// Core graph types (aliases keep the internal implementations fully usable
// through the public API).
type (
	// Graph is an undirected vertex-labelled simple graph.
	Graph = graph.Graph
	// Label is a vertex label.
	Label = graph.Label
	// Builder assembles graphs incrementally.
	Builder = graph.Builder
)

// Query processing types.
type (
	// QueryType selects subgraph or supergraph semantics.
	QueryType = ftv.QueryType
	// Method is "Method M": dataset + filter + verifier.
	Method = ftv.Method
	// Filter prunes the dataset to a sound candidate set.
	Filter = ftv.Filter
	// VerifierFunc tests pattern ⊑ target.
	VerifierFunc = ftv.VerifierFunc
	// FilterFactory builds a Filter over a dataset slice (nil positions
	// are tombstones); methods constructed with one take live AddGraph
	// mutations — incrementally when the filter is an InsertableFilter,
	// by rebuilding otherwise.
	FilterFactory = ftv.FilterFactory
	// InsertableFilter is the optional incremental-maintenance capability:
	// filters implementing it make AddGraph O(graph) via copy-on-write
	// inserts instead of O(dataset) rebuilds. All bundled filters do.
	InsertableFilter = ftv.InsertableFilter
	// DatasetView is one immutable snapshot of a method's live dataset.
	DatasetView = ftv.DatasetView
	// MethodResult reports an uncached Method M execution.
	MethodResult = ftv.Result
	// FeatureVector is a fixed-size, containment-safe graph summary; the
	// cache's hit-detection feature index is built from these.
	FeatureVector = ftv.FeatureVector
)

// ExtractFeatures computes a graph's containment-safe FeatureVector.
func ExtractFeatures(g *Graph) FeatureVector { return ftv.ExtractFeatures(g) }

// Subgraph and Supergraph are the two query semantics.
const (
	Subgraph   = ftv.Subgraph
	Supergraph = ftv.Supergraph
)

// Cache types.
type (
	// Cache is the GraphCache kernel.
	Cache = core.Cache
	// Config parameterizes a Cache.
	Config = core.Config
	// Result reports one cached query execution, with the Figure 3
	// quantities (C_M, S, S', C, R, A) and per-stage timings. It is a
	// read-only view: on an exact hit Answers is the cache's own frozen
	// answer set (a valid snapshot however the dataset changes later),
	// so Clone a set before mutating it.
	Result = core.Result
	// Snapshot is the Statistics Monitor's cumulative counters.
	Snapshot = core.Snapshot
	// Policy is the pluggable replacement-policy interface (Figure 2(d)).
	Policy = core.Policy
	// Entry is a cached query visible to policies.
	Entry = core.Entry
	// HitEvent describes one entry's contribution to one query — or, for
	// exact hits, HitEvent.Count identical contributions folded into one
	// event. A breaking change for custom policies: credit ev.N() times
	// and keep the larger LastUsed, which is what ev.Credit() does.
	HitEvent = core.HitEvent
	// HitKind classifies hits (exact / sub / super).
	HitKind = core.HitKind
	// HitRef reports one contributing hit inside a Result.
	HitRef = core.HitRef
	// Request is one query in a QueryAll batch.
	Request = core.Request
	// Outcome pairs one batch query's Result with its error.
	Outcome = core.Outcome
	// StreamOutcome is one QueryAllStream delivery: an Outcome tagged
	// with its position in the submitted batch.
	StreamOutcome = core.StreamOutcome
	// ShardStat is one shard's occupancy snapshot (entries, resident
	// bytes).
	ShardStat = core.ShardStat
	// DatasetInfo is the live dataset's shape: id space, live graphs and
	// mutation epoch (Cache.DatasetInfo).
	DatasetInfo = core.DatasetInfo
)

// DefaultShards is the lock-shard count selected when Config.Shards is 0.
const DefaultShards = core.DefaultShards

// Hit kinds.
const (
	ExactHit = core.ExactHit
	SubHit   = core.SubHit
	SuperHit = core.SuperHit
)

// NewGraph constructs a graph from labels and an edge list.
func NewGraph(labels []Label, edges [][2]int) (*Graph, error) {
	return graph.New(labels, edges)
}

// MustNewGraph is NewGraph that panics on error.
func MustNewGraph(labels []Label, edges [][2]int) *Graph {
	return graph.MustNew(labels, edges)
}

// NewBuilder returns a builder for an n-vertex graph.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// ReadDataset parses graphs in the gSpan-style text format
// ("t # id / v id label / e u v").
func ReadDataset(r io.Reader) ([]*Graph, error) { return graph.ReadAll(r) }

// WriteDataset writes graphs in the text format.
func WriteDataset(w io.Writer, gs []*Graph) error { return graph.WriteAll(w, gs) }

// SubIso reports whether pattern is (non-induced) subgraph-isomorphic to
// target, using VF2.
func SubIso(pattern, target *Graph) bool { return iso.SubIso(pattern, target) }

// Isomorphic reports whether two labelled graphs are isomorphic.
func Isomorphic(a, b *Graph) bool { return iso.Isomorphic(a, b) }

// NewGGSXMethod builds the demo deployment's Method M: a GraphGrepSX-style
// label-path index (paths up to featureLen edges) with VF2 verification.
// Dataset graphs are identified by slice position.
func NewGGSXMethod(dataset []*Graph, featureLen int) *Method {
	return ftv.NewGGSXMethod(dataset, featureLen)
}

// NewLabelMethod builds a cheap Method M that filters only by size and
// label multiset. Like every bundled method it is dynamic: the dataset
// takes live AddGraph/RemoveGraph mutations.
func NewLabelMethod(dataset []*Graph) *Method {
	return ftv.NewDynamicMethod("label/vf2", dataset,
		func(ds []*Graph) Filter { return ftv.NewLabelFilter(ds) }, nil)
}

// NewStarMethod builds a tree-feature Method M: star subtrees with up to
// maxLeaves leaves (the "tree" member of the paper's feature families).
func NewStarMethod(dataset []*Graph, maxLeaves int) *Method {
	return ftv.NewDynamicMethod("stars/vf2", dataset,
		func(ds []*Graph) Filter { return ftv.NewStarFilter(ds, maxLeaves) }, nil)
}

// NewGGSXFilter, NewStarFilter, NewLabelFilter and NewNoFilter expose the
// bundled filters for custom Method M assembly.
var (
	NewGGSXFilter  = ftv.NewGGSX
	NewStarFilter  = ftv.NewStarFilter
	NewLabelFilter = ftv.NewLabelFilter
	NewNoFilter    = ftv.NewNoFilter
)

// NewSIMethod builds a filterless Method M — a plain subgraph-isomorphism
// algorithm in the paper's taxonomy.
func NewSIMethod(dataset []*Graph) *Method {
	return ftv.NewDynamicMethod("si/vf2", dataset,
		func(ds []*Graph) Filter { return ftv.NewNoFilter(len(ds)) }, nil)
}

// NewMethod assembles a custom Method M from a filter and verifier
// (nil verifier means VF2). The dataset is static: use NewDynamicMethod
// when it must take live AddGraph mutations.
func NewMethod(name string, dataset []*Graph, filter Filter, verify VerifierFunc) *Method {
	return ftv.NewMethod(name, dataset, filter, verify)
}

// NewDynamicMethod assembles a Method M whose dataset takes live
// mutations: Cache.AddGraph appends graphs under fresh stable ids
// (patching the filter incrementally when it implements InsertableFilter,
// rebuilding through the factory otherwise) and Cache.RemoveGraph
// tombstones them, with every cached answer set maintained exactly.
func NewDynamicMethod(name string, dataset []*Graph, factory FilterFactory, verify VerifierFunc) *Method {
	return ftv.NewDynamicMethod(name, dataset, factory, verify)
}

// DefaultConfig mirrors the paper's demo deployment (capacity 50, window
// 10, HD replacement).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewCache builds a cache over the method. The cache is safe for
// concurrent use: entries are partitioned across Config.Shards lock
// shards and the expensive query stages run without holding any lock, so
// many goroutines can call Execute at once (see QueryAll for a bundled
// worker pool).
func NewCache(method *Method, cfg Config) (*Cache, error) { return core.New(method, cfg) }

// QueryAll processes a batch of queries through the cache with a pool of
// workers goroutines, returning outcomes positionally. workers < 2 runs
// the batch sequentially, which additionally makes the final cache
// contents deterministic.
func QueryAll(c *Cache, reqs []Request, workers int) []Outcome {
	return c.ExecuteAll(reqs, workers)
}

// QueryAllStream processes a batch like QueryAll but delivers each
// outcome on the returned channel as soon as its query finishes, tagged
// with the request index; the channel closes when the batch has drained.
func QueryAllStream(c *Cache, reqs []Request, workers int) <-chan StreamOutcome {
	return c.ExecuteAllStream(reqs, workers)
}

// SaveState serializes the cache's admitted entries to w in the binary
// GCS3 snapshot format: entries, utility counters and answer sets in
// their native compressed containers, checksummed per section. The
// snapshot is only restorable into a cache over the same dataset.
func SaveState(c *Cache, w io.Writer) error { return c.WriteState(w) }

// LoadState restores a snapshot (either the binary GCS3 format or the
// legacy v2 text format — the header is sniffed) into the cache,
// replacing its contents. Restores are all-or-nothing: any corruption is
// rejected with an error and the cache is left untouched.
func LoadState(c *Cache, r io.Reader) error { return c.ReadState(r) }

// LoadStateLazy restores a GCS3 snapshot file in lazy mode: the entry
// index and query graphs load eagerly (hit detection is immediately
// warm), answer sets stay on disk — mmapped where supported — and fault
// in as queries first touch each entry. The returned closer owns the
// backing file and must stay open for the cache's lifetime.
func LoadStateLazy(c *Cache, path string) (io.Closer, error) { return c.RestoreStateLazy(path) }

// Bundled replacement policies.
var (
	// NewLRU evicts the least recently used entry.
	NewLRU = core.NewLRU
	// NewPOP evicts the least popular (fewest hits) entry.
	NewPOP = core.NewPOP
	// NewPIN evicts the entry that saved the fewest sub-iso tests.
	NewPIN = core.NewPIN
	// NewPINC evicts the entry whose saved tests cost the least.
	NewPINC = core.NewPINC
	// NewHD blends PIN and PINC adaptively — the recommended default.
	NewHD = core.NewHD
	// NewFIFO evicts the oldest entry.
	NewFIFO = core.NewFIFO
)

// NewRand returns the seeded random-replacement baseline.
func NewRand(seed int64) Policy { return core.NewRand(seed) }

// NewPolicy constructs a bundled policy by name
// ("lru", "pop", "pin", "pinc", "hd", "fifo", "rand").
func NewPolicy(name string) (Policy, error) { return core.NewPolicy(name) }

// PolicyNames lists the bundled policy names.
func PolicyNames() []string { return core.PolicyNames() }

// Generator types for examples and experiments.
type (
	// MoleculeConfig parameterizes the AIDS-like molecule generator.
	MoleculeConfig = gen.MoleculeConfig
	// WorkloadConfig parameterizes workload generation.
	WorkloadConfig = gen.WorkloadConfig
	// Workload is a generated query sequence plus its pattern pool.
	Workload = gen.Workload
	// Query is one workload item.
	Query = gen.Query
)

// GenerateMolecules produces count AIDS-like molecule graphs with slice
// positions as ids, deterministically from the seed.
func GenerateMolecules(seed int64, count int) []*Graph {
	rng := rand.New(rand.NewSource(seed))
	return gen.Molecules(rng, count, gen.DefaultMoleculeConfig())
}

// GenerateMoleculesCfg is GenerateMolecules with an explicit config.
func GenerateMoleculesCfg(seed int64, count int, cfg MoleculeConfig) []*Graph {
	rng := rand.New(rand.NewSource(seed))
	return gen.Molecules(rng, count, cfg)
}

// GenerateSocialGraphs produces count Barabási–Albert graphs (n vertices,
// m attachments per vertex) — the "social networking" shaped dataset.
func GenerateSocialGraphs(seed int64, count, n, m int) []*Graph {
	rng := rand.New(rand.NewSource(seed))
	return gen.BADataset(rng, count, n, m, 8)
}

// CircuitConfig parameterizes the directed, edge-labelled circuit
// generator (the paper's electronic-design use case, exercising the
// generalization to directed graphs with edge labels).
type CircuitConfig = gen.CircuitConfig

// DefaultCircuitConfig returns a small combinational-circuit shape.
func DefaultCircuitConfig() CircuitConfig { return gen.DefaultCircuitConfig() }

// GenerateCircuits produces count layered-DAG circuits with gate-type
// vertex labels and wire-type edge labels, ids = positions.
func GenerateCircuits(seed int64, count int, cfg CircuitConfig) []*Graph {
	rng := rand.New(rand.NewSource(seed))
	return gen.Circuits(rng, count, cfg)
}

// ExtractPattern extracts a connected subgraph pattern with up to
// targetEdges edges from g — the standard way to generate subgraph
// queries with non-empty answers.
func ExtractPattern(seed int64, g *Graph, targetEdges int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	return gen.ExtractConnectedSubgraph(rng, g, targetEdges)
}

// DefaultWorkloadConfig mirrors the demo's 10-query workloads.
func DefaultWorkloadConfig() WorkloadConfig { return gen.DefaultWorkloadConfig() }

// GenerateWorkload generates a query workload over the dataset.
func GenerateWorkload(seed int64, dataset []*Graph, cfg WorkloadConfig) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	return gen.NewWorkload(rng, dataset, cfg)
}
