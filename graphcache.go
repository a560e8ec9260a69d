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
	// Filter prunes the dataset to a sound candidate set and takes
	// additions through a copy-on-write insert that, under GGSX, copies
	// only the trie nodes the new graph's paths touch and one chunk of
	// each per-graph array.
	Filter = ftv.Filter
	// VerifierFunc tests pattern ⊑ target.
	VerifierFunc = ftv.VerifierFunc
	// DatasetView is one immutable snapshot of a method's live dataset.
	DatasetView = ftv.DatasetView
	// MethodResult reports an uncached Method M execution.
	MethodResult = ftv.Result
)

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
	// read-only view: an exact hit's Result is shared by every exact hit
	// on the same cached answers, and its Answers is the cache's own
	// frozen answer set (a valid snapshot however the dataset changes
	// later), so Clone a set before mutating it and never write a field.
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
	// and keep the larger LastUsed, which is what ev.Credit() does. An
	// event is valid only during UpdateCacheStaInfo: never retain it.
	HitEvent = core.HitEvent
	// HitKind classifies hits (exact / sub / super).
	HitKind = core.HitKind
	// HitRef reports one contributing hit inside a Result.
	HitRef = core.HitRef
	// Request is one query in a Cache.ExecuteAll batch.
	Request = core.Request
	// Outcome pairs one batch query's Result with its error.
	Outcome = core.Outcome
	// StreamOutcome is one Cache.ExecuteAllStream delivery: an Outcome
	// tagged with its position in the submitted batch.
	StreamOutcome = core.StreamOutcome
	// DatasetInfo is the live dataset's shape: id space, live graphs and
	// mutation epoch (Cache.DatasetInfo).
	DatasetInfo = core.DatasetInfo
)

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

// NewBuilder returns a builder for an n-vertex graph. A graph holds at
// most 65 536 vertices (graph.MaxVertices): Build returns an error for
// more, and ReadDataset refuses a graph's 65 537th vertex line.
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
// label-path index (paths up to maxLen edges) with VF2 verification.
// Dataset graphs are identified by slice position. maxLen 1 is the cheap
// label-level method: its vertex and edge path counts prune at least as
// much as label-multiset, |V| and |E| dominance would.
func NewGGSXMethod(dataset []*Graph, maxLen int) *Method {
	return ftv.NewGGSXMethod(dataset, maxLen)
}

// NewGGSXFilter and NewNoFilter expose the bundled filters for custom
// Method M assembly.
var (
	NewGGSXFilter = ftv.NewGGSX
	NewNoFilter   = ftv.NewNoFilter
)

// NewSIMethod builds a filterless Method M — a plain subgraph-isomorphism
// algorithm in the paper's taxonomy.
func NewSIMethod(dataset []*Graph) *Method {
	return ftv.NewMethod("si/vf2", dataset, ftv.NewNoFilter(len(dataset)), nil)
}

// NewMethod assembles a custom Method M from a bundled filter built over
// dataset and a verifier (nil verifier means VF2). Cache.AddGraph and
// Cache.RemoveGraph keep every cached answer set exact — also when the
// Method is mutated directly or through another cache over it.
func NewMethod(name string, dataset []*Graph, filter Filter, verify VerifierFunc) *Method {
	return ftv.NewMethod(name, dataset, filter, verify)
}

// DefaultConfig mirrors the paper's demo deployment (capacity 50, window
// 10, HD replacement). Every cache exploits up to 16 sub and 16 super hits
// per query, 4 each when Method M left it fewer than 128 candidates.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewCache builds a cache over the method. The cache is safe for
// concurrent use: exact hits and the expensive query stages run without
// holding any lock, so many goroutines can call Execute at once (see
// Cache.ExecuteAll for a bundled worker pool).
func NewCache(method *Method, cfg Config) (*Cache, error) { return core.New(method, cfg) }

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
