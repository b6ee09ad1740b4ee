package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dict"
	"repro/internal/multigraph"
	"repro/internal/otil"
	"repro/internal/rdf"
)

const figure1 = `
@prefix x: <http://dbpedia.org/resource/> .
@prefix y: <http://dbpedia.org/ontology/> .
x:London y:isPartOf x:England .
x:England y:hasCapital x:London .
x:Christopher_Nolan y:wasBornIn x:London .
x:Christopher_Nolan y:livedIn x:England .
x:Christopher_Nolan y:isPartOf x:Dark_Knight_Trilogy .
x:London y:hasStadium x:WembleyStadium .
x:WembleyStadium y:hasCapacityOf "90000" .
x:Amy_Winehouse y:wasBornIn x:London .
x:Amy_Winehouse y:diedIn x:London .
x:Amy_Winehouse y:wasPartOf x:Music_Band .
x:Music_Band y:hasName "MCA_Band" .
x:Music_Band y:foundedIn "1994" .
x:Music_Band y:wasFormedIn x:London .
x:Amy_Winehouse y:livedIn x:United_States .
x:Amy_Winehouse y:wasMarriedTo x:Blake_Fielder-Civil .
x:Blake_Fielder-Civil y:livedIn x:United_States .
`

func buildAll(t *testing.T) (*multigraph.Graph, *Index) {
	t.Helper()
	triples, err := rdf.ParseString(figure1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := multigraph.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	return g, Build(g)
}

func lookupV(t *testing.T, g *multigraph.Graph, local string) dict.VertexID {
	t.Helper()
	v, ok := g.Dicts.LookupVertex("http://dbpedia.org/resource/" + local)
	if !ok {
		t.Fatalf("vertex %q missing", local)
	}
	return v
}

func lookupT(t *testing.T, g *multigraph.Graph, pred string) dict.EdgeType {
	t.Helper()
	e, ok := g.Dicts.LookupEdgeType("http://dbpedia.org/ontology/" + pred)
	if !ok {
		t.Fatalf("edge type %q missing", pred)
	}
	return e
}

func TestAttributeIndexSingle(t *testing.T) {
	g, ix := buildAll(t)
	a, ok := g.Dicts.LookupAttr("http://dbpedia.org/ontology/hasCapacityOf", rdf.NewLiteral("90000"))
	if !ok {
		t.Fatal("attribute missing")
	}
	got := ix.A.Candidates([]dict.AttrID{a})
	want := lookupV(t, g, "WembleyStadium")
	if len(got) != 1 || got[0] != want {
		t.Errorf("Candidates(hasCapacityOf 90000) = %v, want [%d]", got, want)
	}
}

// TestAttributeIndexConjunction reproduces the paper's u5 example: the
// attribute set {a1, a2} (foundedIn 1994, hasName MCA_Band) selects exactly
// Music_Band.
func TestAttributeIndexConjunction(t *testing.T) {
	g, ix := buildAll(t)
	a1, ok1 := g.Dicts.LookupAttr("http://dbpedia.org/ontology/foundedIn", rdf.NewLiteral("1994"))
	a2, ok2 := g.Dicts.LookupAttr("http://dbpedia.org/ontology/hasName", rdf.NewLiteral("MCA_Band"))
	if !ok1 || !ok2 {
		t.Fatal("attributes missing")
	}
	got := ix.A.Candidates([]dict.AttrID{a1, a2})
	want := lookupV(t, g, "Music_Band")
	if len(got) != 1 || got[0] != want {
		t.Errorf("Candidates({a1,a2}) = %v, want [%d]", got, want)
	}
	// Conjunction with a foreign attribute must be empty.
	a0, _ := g.Dicts.LookupAttr("http://dbpedia.org/ontology/hasCapacityOf", rdf.NewLiteral("90000"))
	if got := ix.A.Candidates([]dict.AttrID{a1, a0}); got != nil {
		t.Errorf("impossible conjunction = %v", got)
	}
}

func TestAttributeIndexEdgeCases(t *testing.T) {
	_, ix := buildAll(t)
	if got := ix.A.Candidates(nil); got != nil {
		t.Errorf("empty attr query = %v", got)
	}
	if got := ix.A.Vertices(dict.AttrID(999)); got != nil {
		t.Errorf("out-of-range attr = %v", got)
	}
	if ix.A.Entries() != 3 {
		t.Errorf("Entries = %d, want 3", ix.A.Entries())
	}
}

// TestSignatureIndexU0 replays the Section 4.2 example on the real graph:
// a query vertex with a single outgoing wasBornIn edge must retrieve
// exactly the vertices having an outgoing wasBornIn edge (Nolan, Amy) —
// and possibly no others on this tiny graph.
func TestSignatureIndexU0(t *testing.T) {
	g, ix := buildAll(t)
	born := lookupT(t, g, "wasBornIn")
	q := multigraph.SynopsisFromMultiEdges(nil, [][]dict.EdgeType{{born}}).AsQuery()
	got := ix.S.Candidates(q)

	mustHave := map[dict.VertexID]bool{
		lookupV(t, g, "Christopher_Nolan"): false,
		lookupV(t, g, "Amy_Winehouse"):     false,
	}
	for _, v := range got {
		if _, ok := mustHave[v]; ok {
			mustHave[v] = true
		}
		// Lemma 1 gives a superset; but every returned vertex must at least
		// dominate the query synopsis.
		if !g.VertexSynopsis(v).Dominates(q) {
			t.Errorf("returned vertex %d does not dominate query", v)
		}
	}
	for v, seen := range mustHave {
		if !seen {
			t.Errorf("true candidate %d pruned by S index", v)
		}
	}
}

func TestSignatureIndexCompleteness(t *testing.T) {
	g, ix := buildAll(t)
	if ix.S.Len() != g.NumVertices() {
		t.Errorf("S indexes %d vertices, want %d", ix.S.Len(), g.NumVertices())
	}
	// An empty query synopsis must return every vertex.
	var empty multigraph.Synopsis
	got := ix.S.Candidates(empty.AsQuery())
	if len(got) != g.NumVertices() {
		t.Errorf("empty-query candidates = %d, want all %d", len(got), g.NumVertices())
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("S candidates not sorted")
		}
	}
}

// TestNeighborhoodIndexFigure3 replays the worked example of Section 4.3:
// probing N+ of London with edge type wasBornIn yields {Nolan, Amy}.
func TestNeighborhoodIndexFigure3(t *testing.T) {
	g, ix := buildAll(t)
	london := lookupV(t, g, "London")
	born := lookupT(t, g, "wasBornIn")
	died := lookupT(t, g, "diedIn")

	got := ix.N.Neighbors(london, Incoming, []dict.EdgeType{born})
	wantSet := map[dict.VertexID]bool{
		lookupV(t, g, "Christopher_Nolan"): true,
		lookupV(t, g, "Amy_Winehouse"):     true,
	}
	if len(got) != 2 || !wantSet[got[0]] || !wantSet[got[1]] {
		t.Errorf("N+(London, wasBornIn) = %v, want Nolan and Amy", got)
	}

	// Multi-edge {wasBornIn, diedIn}: only Amy.
	me := []dict.EdgeType{born, died}
	if born > died {
		me = []dict.EdgeType{died, born}
	}
	got = ix.N.Neighbors(london, Incoming, me)
	if len(got) != 1 || got[0] != lookupV(t, g, "Amy_Winehouse") {
		t.Errorf("N+(London, {born,died}) = %v, want [Amy]", got)
	}
}

func TestNeighborhoodIndexOutgoing(t *testing.T) {
	g, ix := buildAll(t)
	amy := lookupV(t, g, "Amy_Winehouse")
	lived := lookupT(t, g, "livedIn")
	got := ix.N.Neighbors(amy, Outgoing, []dict.EdgeType{lived})
	if len(got) != 1 || got[0] != lookupV(t, g, "United_States") {
		t.Errorf("N-(Amy, livedIn) = %v, want [United_States]", got)
	}
	// Direction matters: incoming probe must be empty.
	if got := ix.N.Neighbors(amy, Incoming, []dict.EdgeType{lived}); got != nil {
		t.Errorf("N+(Amy, livedIn) = %v, want nil", got)
	}
}

func TestNeighborhoodIndexBounds(t *testing.T) {
	_, ix := buildAll(t)
	if got := ix.N.Neighbors(dict.VertexID(9999), Incoming, []dict.EdgeType{0}); got != nil {
		t.Errorf("out-of-range vertex = %v", got)
	}
}

func TestDirectionString(t *testing.T) {
	if Incoming.String() != "+" || Outgoing.String() != "-" {
		t.Errorf("Direction strings: %s %s", Incoming, Outgoing)
	}
}

// TestNeighborsAgainstAdjacency checks every N probe shape on a random
// graph against two references: brute force over the adjacency, and the
// paper's OTIL trie (otil.Trie.LookupTrie) built from the same adjacency.
// For every vertex and direction it probes each full multi-edge, each
// single type, a random 2–3-type subset, and an edge type beyond the
// dictionary (which the delta overlay can pass for a new predicate).
func TestNeighborsAgainstAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(t, rng, 20, 6, 300)
	ix := Build(g)
	nT := dict.EdgeType(g.NumEdgeTypes())
	probes := 0
	for v := 0; v < g.NumVertices(); v++ {
		vid := dict.VertexID(v)
		for _, side := range []struct {
			dir Direction
			adj []multigraph.Neighbor
		}{{Incoming, g.In(vid)}, {Outgoing, g.Out(vid)}} {
			var tr otil.Trie
			var own []dict.EdgeType // distinct types on this side, sorted
			for _, nb := range side.adj {
				tr.Insert(nb.Types, nb.V)
				own = append(own, nb.Types...)
			}
			slices.Sort(own)
			own = slices.Compact(own)

			queries := [][]dict.EdgeType{{nT}, {nT + 7}}
			for _, nb := range side.adj {
				queries = append(queries, nb.Types)
			}
			for _, et := range own {
				queries = append(queries, []dict.EdgeType{et})
			}
			if len(own) >= 2 {
				k := 2 + rng.Intn(2)
				if k > len(own) {
					k = len(own)
				}
				sub := make([]dict.EdgeType, 0, k)
				for _, i := range rng.Perm(len(own))[:k] {
					sub = append(sub, own[i])
				}
				slices.Sort(sub)
				queries = append(queries, sub)
			}
			for _, q := range queries {
				got := ix.N.Neighbors(vid, side.dir, q)
				want := bruteNeighbors(side.adj, q)
				if !slices.Equal(got, want) {
					t.Fatalf("N%s(%d, %v) = %v, brute force %v", side.dir, v, q, got, want)
				}
				if ref := tr.LookupTrie(q); !slices.Equal(got, ref) {
					t.Fatalf("N%s(%d, %v) = %v, OTIL trie %v", side.dir, v, q, got, ref)
				}
				if len(got) == 0 && got != nil {
					t.Fatalf("N%s(%d, %v) returned an empty non-nil list", side.dir, v, q)
				}
				probes++
			}
		}
	}
	if probes < 500 {
		t.Fatalf("only %d probes checked", probes)
	}
}

// randomGraph builds a graph of at most nV vertices and nP predicates
// from m random IRI triples (self-loops skipped).
func randomGraph(t *testing.T, rng *rand.Rand, nV, nP, m int) *multigraph.Graph {
	t.Helper()
	var b multigraph.Builder
	for i := 0; i < m; i++ {
		s := rdf.NewIRI(fmt.Sprintf("v%d", rng.Intn(nV)))
		o := rdf.NewIRI(fmt.Sprintf("v%d", rng.Intn(nV)))
		if s == o {
			continue
		}
		p := rdf.NewIRI(fmt.Sprintf("p%d", rng.Intn(nP)))
		if err := b.Add(rdf.Triple{S: s, P: p, O: o}); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// bruteNeighbors scans an adjacency list for the neighbours whose
// multi-edge contains every type in q; nil when none does.
func bruteNeighbors(adj []multigraph.Neighbor, q []dict.EdgeType) []dict.VertexID {
	var out []dict.VertexID
	for _, nb := range adj {
		if multigraph.ContainsTypes(nb.Types, q) {
			out = append(out, nb.V)
		}
	}
	return out
}

// TestSingleTypeAnswerIsCapped checks that a single-type answer, which
// shares N's arrays, cannot be extended in place: an append must leave
// the next stored list untouched.
func TestSingleTypeAnswerIsCapped(t *testing.T) {
	g := randomGraph(t, rand.New(rand.NewSource(9)), 20, 3, 200)
	ix := Build(g)
	fresh := Build(g)
	for v := 0; v < g.NumVertices(); v++ {
		for et := dict.EdgeType(0); int(et) < g.NumEdgeTypes(); et++ {
			for _, dir := range []Direction{Incoming, Outgoing} {
				if got := ix.N.Neighbors(dict.VertexID(v), dir, []dict.EdgeType{et}); got != nil {
					if cap(got) != len(got) {
						t.Fatalf("N%s(%d, t%d): cap %d > len %d", dir, v, et, cap(got), len(got))
					}
					_ = append(got, ^dict.VertexID(0))
				}
			}
		}
	}
	if !reflect.DeepEqual(ix.N, fresh.N) {
		t.Fatal("appending to probe answers changed N")
	}
}

// TestNeighborhoodIndexIsFlat checks that N is a fixed set of flat arrays:
// building it allocates the same number of heap objects whatever the
// graph size, and Bytes reports exactly those arrays.
func TestNeighborhoodIndexIsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small := randomGraph(t, rng, 10, 4, 40)
	large := randomGraph(t, rng, 400, 12, 4000)
	allocs := func(g *multigraph.Graph) float64 {
		return testing.AllocsPerRun(5, func() { BuildNeighborhoodIndex(g) })
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Errorf("BuildNeighborhoodIndex allocates %v objects for %d vertices, %v for %d",
			a, small.NumVertices(), b, large.NumVertices())
	}
	// Per direction: vOff (|V|+1), types and lOff (one entry per distinct
	// (vertex, type) pair, plus one), verts (one per (pair, type) posting).
	var want int64
	for _, adj := range []func(dict.VertexID) []multigraph.Neighbor{large.In, large.Out} {
		pairs, postings := 0, 0
		for v := 0; v < large.NumVertices(); v++ {
			var own []dict.EdgeType
			for _, nb := range adj(dict.VertexID(v)) {
				own = append(own, nb.Types...)
				postings += len(nb.Types)
			}
			slices.Sort(own)
			pairs += len(slices.Compact(own))
		}
		want += 4 * int64(large.NumVertices()+1+2*pairs+1+postings)
	}
	if got := BuildNeighborhoodIndex(large).Bytes(); got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
}

// TestCardinalities cross-checks the planner statistics against a direct
// adjacency scan on a small graph with multi-edges and skewed type usage.
func TestCardinalities(t *testing.T) {
	triples, err := rdf.ParseString(`
<http://x/a> <http://y/p> <http://x/b> .
<http://x/a> <http://y/q> <http://x/b> .
<http://x/a> <http://y/p> <http://x/c> .
<http://x/b> <http://y/p> <http://x/c> .
<http://x/c> <http://y/r> <http://x/a> .
`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := multigraph.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(g)
	if ix.Card == nil {
		t.Fatal("Build left Card nil")
	}
	c := ix.Card
	if c.NumVertices != g.NumVertices() {
		t.Errorf("NumVertices = %d, want %d", c.NumVertices, g.NumVertices())
	}
	p, okP := g.Dicts.LookupEdgeType("http://y/p")
	q, okQ := g.Dicts.LookupEdgeType("http://y/q")
	r, okR := g.Dicts.LookupEdgeType("http://y/r")
	if !okP || !okQ || !okR {
		t.Fatal("edge types missing")
	}
	// p: edges a→b, a→c, b→c (3 pairs); sources {a,b}; targets {b,c}.
	if got := c.Edges[p]; got != 3 {
		t.Errorf("Edges[p] = %d, want 3", got)
	}
	if got := c.VerticesWith(Outgoing, p); got != 2 {
		t.Errorf("OutVertices[p] = %d, want 2", got)
	}
	if got := c.VerticesWith(Incoming, p); got != 2 {
		t.Errorf("InVertices[p] = %d, want 2", got)
	}
	// q: single edge a→b.
	if c.Edges[q] != 1 || c.VerticesWith(Outgoing, q) != 1 || c.VerticesWith(Incoming, q) != 1 {
		t.Errorf("q cardinalities = %d/%d/%d, want 1/1/1",
			c.Edges[q], c.VerticesWith(Outgoing, q), c.VerticesWith(Incoming, q))
	}
	// Fanout of p at a bound source: 3 edges over 2 sources.
	if got := c.Fanout(Outgoing, p); got != 1.5 {
		t.Errorf("Fanout(out, p) = %v, want 1.5", got)
	}
	// Unknown type is safe.
	if c.VerticesWith(Outgoing, r+100) != 0 || c.Fanout(Incoming, r+100) != 0 {
		t.Error("out-of-range type not zero")
	}
}

// TestCardinalitiesAgainstAdjacency checks the statistics Build reads off
// N against a direct count over the adjacency of a random graph.
func TestCardinalitiesAgainstAdjacency(t *testing.T) {
	g := randomGraph(t, rand.New(rand.NewSource(21)), 40, 8, 600)
	c := Build(g).Card
	nT := g.NumEdgeTypes()
	want := Cardinalities{
		OutVertices: make([]int, nT), InVertices: make([]int, nT),
		Edges: make([]int, nT), NumVertices: g.NumVertices(),
	}
	for v := 0; v < g.NumVertices(); v++ {
		vid := dict.VertexID(v)
		for et := dict.EdgeType(0); int(et) < nT; et++ {
			if bruteNeighbors(g.Out(vid), []dict.EdgeType{et}) != nil {
				want.OutVertices[et]++
			}
			if bruteNeighbors(g.In(vid), []dict.EdgeType{et}) != nil {
				want.InVertices[et]++
			}
			want.Edges[et] += len(bruteNeighbors(g.Out(vid), []dict.EdgeType{et}))
		}
	}
	if !reflect.DeepEqual(*c, want) {
		t.Errorf("Cardinalities = %+v, want %+v", *c, want)
	}
}
