package ftv

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"graphcache/internal/graph"
)

// oracleDataset draws n oracleGraphs of the given kind.
func oracleDataset(rng *rand.Rand, n, kind int) []*graph.Graph {
	ds := make([]*graph.Graph, n)
	for i := range ds {
		ds[i] = oracleGraph(rng, kind)
	}
	return ds
}

// The stamp lives in the padding after id; a second word would cost every
// node of every index 16 bytes. A child is its 4-byte key and a pointer,
// and IndexBytes charges both sizes.
func TestTrieNodeIs48Bytes(t *testing.T) {
	if s := unsafe.Sizeof(trieNode{}); s != 48 {
		t.Errorf("trieNode is %d bytes, want 48", s)
	}
	if s := unsafe.Sizeof(kid{}); s != 16 {
		t.Errorf("kid is %d bytes, want 16", s)
	}
}

// layoutDiff returns the first way x differs from built, a build over the
// same graphs, or "": node count, IndexBytes, and per node its encoding
// and its postings packed, byte for byte — for a list its own bytes,
// header and all, for a bitmap the list it decodes to — and a bitmap's
// count of blocks of its own.
func layoutDiff(x, built *GGSX) string {
	if x.nodes != built.nodes || x.IndexBytes() != built.IndexBytes() {
		return fmt.Sprintf("%d nodes / %d B, build %d nodes / %d B", x.nodes, x.IndexBytes(), built.nodes, built.IndexBytes())
	}
	want := nodesByID(built)
	for id, nd := range nodesByID(x) {
		b := want[id]
		if (nd.slices != nil) != (b.slices != nil) {
			return fmt.Sprintf("node %d is a bitmap: %v, build %v", id, nd.slices != nil, b.slices != nil)
		}
		a, w := nd.list, b.list
		if nd.slices != nil {
			if nd.slices.used != b.slices.used {
				return fmt.Sprintf("node %d bitmap has %d blocks of its own, build %d", id, nd.slices.used, b.slices.used)
			}
			a, w = nd.slices.postings(), b.slices.postings()
		}
		if !bytes.Equal(packedBytes(a), packedBytes(w)) {
			return fmt.Sprintf("node %d packed list % x, build % x", id, packedBytes(a), packedBytes(w))
		}
	}
	return ""
}

// TestInsertChainLayoutMatchesBuild grows a 20-graph index by 620
// WithGraph inserts, past the 512-graph block boundary, and every 50
// inserts compares it node by node with a build over the same graphs. An
// insert decides a list node's encoding from the digit count the list
// carries, so a count lost or mis-kept on the way shows as a different
// encoding or digit count here.
func TestInsertChainLayoutMatchesBuild(t *testing.T) {
	const inserts = 620
	rng := rand.New(rand.NewSource(97))
	ds := oracleDataset(rng, 20, 0)
	x := NewGGSX(ds, 3)
	var ev layoutEvents
	for i := 1; i <= inserts; i++ {
		g := oracleGraph(rng, 0)
		x2 := x.WithGraph(len(ds), g).(*GGSX)
		ds = append(ds, g)
		ev.observe(x, x2)
		x = x2
		if i%50 == 0 || i == inserts {
			if d := layoutDiff(x, NewGGSX(ds, 3)); d != "" {
				t.Fatalf("after %d inserts: %s", i, d)
			}
		}
	}
	if !ev.listToBitmap || !ev.bitmapToList || !ev.newSlice {
		t.Fatalf("vacuous: the chain's re-encodings %+v", ev)
	}
}

// TestListSizeRuleMatchesEncode checks the O(1) size rule addPosting
// applies to a list, on the digit count, length and last gid its header
// carries, against encodeSlices, which reads every posting: on random
// lists built at once and on the same lists grown a posting at a time,
// packed and read back after each.
func TestListSizeRuleMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var bitmaps, lists int
	for range 2000 {
		maxCount, gap := int32(1)<<rng.Intn(9), 1+rng.Intn(64)
		ps := make([]posting, 1+rng.Intn(300))
		gid := int32(-1)
		for i := range ps {
			gid += 1 + int32(rng.Intn(gap))
			ps[i] = posting{gid, 1 + rng.Int31n(maxCount)}
		}
		var whole postingList
		var grown *byte
		for _, p := range ps {
			whole.add(p.gid, p.count)
			l := listOf(grown)
			l.body = slices.Clone(l.body)
			l.add(p.gid, p.count)
			grown = l.pack()
		}
		for _, l := range []postingList{whole, listOf(grown)} {
			rule := bitmapSmaller(l.digits, wordsFor(l.last), l.n)
			if encoded := encodeSlices(l.all()) != nil; rule != encoded {
				t.Fatalf("%d postings, last gid %d, %d digits: rule says bitmap %v, encodeSlices %v", l.n, l.last, l.digits, rule, encoded)
			}
			if rule {
				bitmaps++
			} else {
				lists++
			}
		}
	}
	if bitmaps == 0 || lists == 0 {
		t.Fatalf("vacuous: %d bitmaps, %d lists", bitmaps, lists)
	}
}

// TestInsertSharesUntouchedChunks pins what a mutation copies: after
// GGSX.WithGraph, Method.AddGraph and Method.RemoveGraph, every chunk of
// the per-graph arrays but the one written is the receiver's, and after
// WithGraph every trie node the new graph's paths miss is the receiver's
// while every node they touch is a copy.
func TestInsertSharesUntouchedChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ds := oracleDataset(rng, 600, 0) // three chunks
	g := oracleGraph(rng, 0)

	x := NewGGSX(ds, 3)
	x2 := x.WithGraph(len(ds), g).(*GGSX)
	sharesAllChunksBut(t, "WithGraph forward", x.forward, x2.forward, len(ds))
	sharesAllChunksBut(t, "WithGraph blooms", x.blooms, x2.blooms, len(ds))
	touched := make(map[int32]bool)
	for _, nc := range decodeRow(x2.forward.At(len(ds))) {
		touched[nc.node] = true
	}
	var sharedUnderCopy int
	var walk func(old, nd *trieNode)
	walk = func(old, nd *trieNode) {
		for _, kc := range nd.children {
			c, o := kc.nd, (*trieNode)(nil)
			if old != nil {
				o = lookupChild(old, kc.k)
			}
			switch {
			case touched[c.id] && c == o:
				t.Errorf("node %d lies on g's paths but is the receiver's", c.id)
			case !touched[c.id] && c != o:
				t.Errorf("node %d lies off g's paths but was copied", c.id)
			case !touched[c.id]:
				sharedUnderCopy++
			}
			if touched[c.id] { // below a node off the paths all is the receiver's
				walk(o, c)
			}
		}
	}
	walk(x.root, x2.root)
	if len(touched) == 0 || sharedUnderCopy == 0 {
		t.Fatalf("vacuous: %d nodes touched, %d shared below a copy", len(touched), sharedUnderCopy)
	}

	m := NewGGSXMethod(ds, 3)
	s0 := m.state.Load()
	gid, err := m.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	s1 := m.state.Load()
	sharesAllChunksBut(t, "AddGraph dataset", s0.dataset, s1.dataset, gid)
	if err := m.RemoveGraph(300); err != nil {
		t.Fatal(err)
	}
	s2 := m.state.Load()
	sharesAllChunksBut(t, "RemoveGraph dataset", s1.dataset, s2.dataset, 300)
	if s2.filter != s1.filter {
		t.Error("RemoveGraph replaced the filter")
	}
}

// TestInsertCopiesOneBlockPerSetDigit pins what an insert copies inside
// the trie nodes it touches: a bitmap node gets one fresh block per digit
// the new count has a one in, the block the gid lands in, and every other
// block of its directory is the receiver's at the same place, or the
// shared zero block where the receiver had none (growth); a list node
// gets a packed list of its own, the receiver's plus the new posting,
// and the receiver's list keeps its bytes.
func TestInsertCopiesOneBlockPerSetDigit(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ds := oracleDataset(rng, 600, 0) // two 512-graph blocks
	x := NewGGSX(ds, 3)
	var bitmaps, multiDigit, grown, lists int
	for i, gid := range []int{600, 601, 1100} { // 1100 starts a third block
		before := nodesByID(x)
		was := make([][]byte, len(before))
		for id, nd := range before {
			was[id] = bytes.Clone(packedBytes(nd.list))
		}
		x2 := x.WithGraph(gid, ds[i]).(*GGSX)
		after := nodesByID(x2)
		for _, nc := range decodeRow(x2.forward.At(gid)) {
			if int(nc.node) >= len(before) {
				continue // created by the insert
			}
			old, nd := before[nc.node], after[nc.node]
			switch {
			case old.slices != nil && nd.slices != nil:
				bitmaps++
				growth := checkBlocksCopied(t, nc.node, old.slices, nd.slices, int32(gid), nc.count)
				if growth > 0 {
					grown++
				}
				if bits.OnesCount32(uint32(nc.count)) > 1 {
					multiDigit++
				}
			case old.slices == nil && nd.slices == nil:
				lists++
				want := listOf(old.list)
				want.body = bytes.Clone(want.body)
				want.add(int32(gid), nc.count)
				if nd.list == old.list || !bytes.Equal(packedBytes(old.list), was[nc.node]) {
					t.Errorf("node %d: the insert wrote the receiver's list", nc.node)
				}
				if got := packedBytes(nd.list); !bytes.Equal(got, packedBytes(want.pack())) {
					t.Errorf("node %d: list % x after an insert into % x", nc.node, got, was[nc.node])
				}
			}
		}
		x = x2
	}
	if zeroBlock != (block{}) {
		t.Fatalf("the shared zero block was written: %x", zeroBlock)
	}
	if bitmaps == 0 || multiDigit == 0 || grown == 0 || lists == 0 {
		t.Fatalf("vacuous: %d bitmap nodes (%d counts with two ones or more, %d grown), %d list nodes", bitmaps, multiDigit, grown, lists)
	}
}

// checkBlocksCopied checks nd, old plus (gid, c), block by block against
// old and returns the growth: the places old had no block for.
func checkBlocksCopied(t *testing.T, id int32, old, nd *countSlices, gid, c int32) (growth int) {
	t.Helper()
	fresh := 0
	for b, dir := range nd.slice {
		var was []*block
		if b < len(old.slice) {
			was = old.slice[b]
		}
		if c>>b&1 == 0 && len(dir) == len(was) && &dir[0] != &was[0] {
			t.Errorf("node %d: digit %d has no one and no growth, but a directory of its own", id, b)
		}
		for k, blk := range dir {
			want := &zeroBlock
			if k < len(was) {
				want = was[k]
			} else {
				growth++
			}
			if k == int(gid>>blockBits) && c>>b&1 != 0 {
				fresh++
				if blk == want || blk == &zeroBlock {
					t.Errorf("node %d: digit %d of block %d takes gid %d's bit but is shared", id, b, k, gid)
				}
			} else if blk != want {
				t.Errorf("node %d: digit %d of block %d copied, count %d", id, b, k, c)
			}
		}
	}
	if want := bits.OnesCount32(uint32(c)); fresh != want {
		t.Errorf("node %d: %d fresh blocks for count %d, want %d", id, fresh, c, want)
	}
	return growth
}

// TestGGSXCandidatesMatchReferenceAcrossBlocks runs the layout oracle on
// a dataset whose inserts cross the 512-graph block boundary of the
// bitmap encoding.
func TestGGSXCandidatesMatchReferenceAcrossBlocks(t *testing.T) {
	for kind := range 2 {
		runGGSXOracle(t, int64(110+kind), kind, 500, 30)
	}
}

// viewAnswers prints, per query and direction, the view's candidates and
// the candidates VerifyCandidate accepts.
func viewAnswers(v DatasetView, queries []*graph.Graph) string {
	var out []byte
	for _, q := range queries {
		for _, qt := range []QueryType{Subgraph, Supergraph} {
			c := v.Candidates(q, qt)
			var accepted []int
			c.ForEach(func(gid int) bool {
				if v.VerifyCandidate(q, gid, qt) {
					accepted = append(accepted, gid)
				}
				return true
			})
			out = fmt.Appendf(out, "%v %v\n", c, accepted)
		}
	}
	return string(out)
}

// TestConcurrentAddKeepsViews holds readers pinned to older views against
// a writer chaining AddGraph and RemoveGraph on the same Method: every
// view answers as it did before the writer started, however the inserts
// copy and share trie nodes and chunks behind it. Under -race it also
// checks that an insert reads, and never writes, what a published view
// holds.
func TestConcurrentAddKeepsViews(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	ds := oracleDataset(rng, 300, 0)
	adds := oracleDataset(rng, 200, 0)
	queries := oracleDataset(rng, 4, 0)
	for i := 0; i < 4; i++ {
		src := ds[rng.Intn(len(ds))]
		q, _ := src.InducedSubgraph(rng.Perm(src.N())[:1+rng.Intn(src.N())])
		queries = append(queries, q)
	}

	m := NewGGSXMethod(ds, 3)
	views := []DatasetView{m.View()}
	for i, g := range adds[:6] {
		if _, err := m.AddGraph(g); err != nil {
			t.Fatal(err)
		}
		if err := m.RemoveGraph(i); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			views = append(views, m.View())
		}
	}
	want := make([]string, len(views))
	for i, v := range views {
		want[i] = viewAnswers(v, queries)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	for i, v := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rounds := 0; rounds < 2 || !done.Load(); rounds++ {
				if got := viewAnswers(v, queries); got != want[i] {
					t.Errorf("view %d (epoch %d) answered differently under the writer:\n%s\nwant\n%s", i, v.Epoch(), got, want[i])
					return
				}
			}
		}()
	}
	for _, g := range adds[6:] {
		gid, err := m.AddGraph(g)
		if err == nil && gid%3 == 0 {
			err = m.RemoveGraph(gid / 3) // never removed before: the first six adds removed 0–5
		}
		if err != nil {
			t.Error(err)
			break
		}
	}
	done.Store(true)
	wg.Wait()

	v := m.View()
	final := make([]*graph.Graph, v.Size())
	for gid := range final {
		final[gid] = v.Graph(gid)
	}
	if got, want := viewAnswers(v, queries), viewAnswers(NewGGSXMethod(final, 3).View(), queries); got != want {
		t.Errorf("the chained Method answers\n%s\na rebuild over its dataset\n%s", got, want)
	}
}

// TestInsertAfterStampWrap: when the insert stamp wraps to the build's,
// WithGraph copies the trie instead of writing nodes the receiver holds.
func TestInsertAfterStampWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ds := oracleDataset(rng, 40, 0)
	x := NewGGSX(ds, 3)
	x.gen = math.MaxUint32 - 1 // the next insert's stamp wraps to 0, the build's
	dump := func(x *GGSX) string {
		var out []byte
		for _, nd := range nodesByID(x) {
			ps := nd.list
			if nd.slices != nil {
				ps = nd.slices.postings()
			}
			out = fmt.Appendf(out, "%d %v\n", len(nd.children), listOf(ps))
		}
		return string(out)
	}
	before := dump(x)
	grown := append(ds, ds[0]) // every path of ds[0] is in the trie
	x2 := x.WithGraph(len(ds), ds[0]).(*GGSX)
	if dump(x) != before {
		t.Fatal("an insert across the stamp wrap wrote the receiver's nodes")
	}
	if rebuilt := NewGGSX(grown, 3); dump(x2) != dump(rebuilt) || x2.IndexBytes() != rebuilt.IndexBytes() {
		t.Fatal("the insert across the stamp wrap differs from a rebuild")
	}
	if x3 := x2.WithGraph(len(grown), ds[1]).(*GGSX); x3.gen != 4 {
		t.Fatalf("stamps after the wrap: %d, %d; want 2, 4", x2.gen, x3.gen)
	}
}
