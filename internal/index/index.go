// Package index builds and serves the three offline index structures of the
// AMbER paper (Section 4): the attribute inverted index A, the vertex
// signature (synopsis) index S backed by an R-tree, and the vertex
// neighbourhood index N for incoming (N+) and outgoing (N−) edges. N stores
// the inverted lists of the paper's per-vertex OTIL tries flat, in one
// compressed-sparse-row layout per direction; the trie walk lives in
// internal/otil as the reference the tests compare against. The ensemble
// I := {A, S, N} is what the online matching procedure probes.
package index

import (
	"math"
	"slices"
	"sort"

	"repro/internal/dict"
	"repro/internal/multigraph"
	"repro/internal/otil"
	"repro/internal/rtree"
)

// Direction selects which side of a vertex's edges an index probe concerns.
type Direction uint8

const (
	// Incoming is the paper's '+': edges directed towards the vertex.
	Incoming Direction = iota
	// Outgoing is the paper's '−': edges directed away from the vertex.
	Outgoing
)

// String reports the paper's sign notation.
func (d Direction) String() string {
	if d == Incoming {
		return "+"
	}
	return "-"
}

// AttributeIndex is the inverted list A: for each attribute id, the sorted
// list of data vertices carrying it (Section 4.1).
type AttributeIndex struct {
	lists [][]dict.VertexID // indexed by AttrID
}

// BuildAttributeIndex scans the graph's vertex attributes.
func BuildAttributeIndex(g *multigraph.Graph) *AttributeIndex {
	lists := make([][]dict.VertexID, g.NumAttrs())
	for v := 0; v < g.NumVertices(); v++ {
		for _, a := range g.Attrs(dict.VertexID(v)) {
			lists[a] = append(lists[a], dict.VertexID(v))
		}
	}
	// Vertices are scanned in ascending order, so lists are already sorted.
	return &AttributeIndex{lists: lists}
}

// Vertices returns the sorted list of vertices carrying attribute a. The
// returned slice must not be modified.
func (ai *AttributeIndex) Vertices(a dict.AttrID) []dict.VertexID {
	if int(a) >= len(ai.lists) {
		return nil
	}
	return ai.lists[a]
}

// Candidates returns CᴬU: the vertices carrying every attribute in attrs.
// A nil attrs yields nil — callers only probe when attributes exist.
func (ai *AttributeIndex) Candidates(attrs []dict.AttrID) []dict.VertexID {
	return IntersectPostings(attrs, ai.Vertices)
}

// IntersectPostings returns, sorted ascending, the vertices on every
// posting list list(k) for k in keys, intersecting from the rarest list
// outward. It is nil when keys or any of the lists is empty. A single key's
// answer is the stored list itself, capped so that a caller's append
// reallocates instead of overwriting the next stored list; like every
// probe answer it must not be modified.
//
//amber:hotloop
func IntersectPostings[K ~uint32](keys []K, list func(K) []dict.VertexID) []dict.VertexID {
	switch len(keys) {
	case 0:
		return nil
	case 1:
		lst := list(keys[0])
		if len(lst) == 0 {
			return nil
		}
		return lst[:len(lst):len(lst)]
	}
	lists := make([][]dict.VertexID, len(keys))
	for i, k := range keys {
		if lists[i] = list(k); len(lists[i]) == 0 {
			return nil
		}
	}
	slices.SortFunc(lists, func(a, b []dict.VertexID) int { return len(a) - len(b) })
	// Two or more lists: the first intersection already allocates, so the
	// answer never aliases a stored list.
	out := lists[0]
	for _, lst := range lists[1:] {
		if out = otil.IntersectSorted(out, lst); len(out) == 0 {
			return nil
		}
	}
	return out
}

// Entries reports the total number of postings (for Table 5 size
// accounting).
func (ai *AttributeIndex) Entries() int {
	n := 0
	for _, l := range ai.lists {
		n += len(l)
	}
	return n
}

// SignatureIndex is the synopsis R-tree S (Section 4.2).
type SignatureIndex struct {
	tree *rtree.Tree
}

// BuildSignatureIndex computes every vertex synopsis and bulk-loads the
// R-tree.
func BuildSignatureIndex(g *multigraph.Graph) *SignatureIndex {
	n := g.NumVertices()
	points := make([]rtree.Point, n)
	ids := make([]uint32, n)
	for v := 0; v < n; v++ {
		points[v] = rtree.Point(g.VertexSynopsis(dict.VertexID(v)))
		ids[v] = uint32(v)
	}
	return &SignatureIndex{tree: rtree.BulkLoad(points, ids)}
}

// Candidates returns CˢU, sorted ascending: every data vertex whose synopsis
// dominates the query synopsis q (which callers must have passed through
// Synopsis.AsQuery). Per Lemma 1 this is a superset of all true matches.
func (si *SignatureIndex) Candidates(q multigraph.Synopsis) []dict.VertexID {
	ids := si.tree.CollectDominating(rtree.Point(q))
	out := make([]dict.VertexID, len(ids))
	for i, id := range ids {
		out[i] = dict.VertexID(id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len reports the number of indexed synopses.
func (si *SignatureIndex) Len() int { return si.tree.Len() }

// NeighborhoodIndex is N (Section 4.3), split into N+ (incoming
// multi-edges) and N− (outgoing). Every probe the engine makes is answered
// by the inverted lists of the paper's per-vertex OTIL tries, so N stores
// exactly those lists, flat, one posting layout per direction; the trie
// walk itself lives in internal/otil as the reference implementation.
type NeighborhoodIndex struct {
	in  postings // N+
	out postings // N−
}

// postings is one direction of N in compressed-sparse-row form. Vertex
// v's distinct edge types are types[vOff[v]:vOff[v+1]], sorted ascending;
// the neighbours reached through types[i] are verts[lOff[i]:lOff[i+1]],
// sorted ascending.
type postings struct {
	vOff  []uint32
	types []dict.EdgeType
	lOff  []uint32
	verts []dict.VertexID
}

// BuildNeighborhoodIndex lays out both directions from the graph
// adjacency.
func BuildNeighborhoodIndex(g *multigraph.Graph) *NeighborhoodIndex {
	return &NeighborhoodIndex{in: buildPostings(g, g.In), out: buildPostings(g, g.Out)}
}

// buildPostings makes two passes over one side of the adjacency: the
// first sizes the arrays exactly, the second fills them. A vertex's
// adjacency is sorted by neighbour id, so filling each type's list in
// adjacency order leaves it sorted.
func buildPostings(g *multigraph.Graph, adj func(dict.VertexID) []multigraph.Neighbor) postings {
	n := g.NumVertices()
	// seen[t] == v+1 marks type t as already listed for vertex v; next[t]
	// then counts, and later positions, t's postings of v.
	seen := make([]int, g.NumEdgeTypes())
	next := make([]uint32, g.NumEdgeTypes())
	nTypes, nVerts := 0, 0
	for v := 0; v < n; v++ {
		for _, nb := range adj(dict.VertexID(v)) {
			for _, t := range nb.Types {
				if seen[t] != v+1 {
					seen[t] = v + 1
					nTypes++
				}
			}
			nVerts += len(nb.Types)
		}
	}
	if uint64(nVerts) > math.MaxUint32 {
		panic("index: neighbourhood postings overflow uint32 offsets")
	}
	p := postings{
		vOff:  make([]uint32, n+1),
		types: make([]dict.EdgeType, 0, nTypes),
		lOff:  make([]uint32, nTypes+1),
		verts: make([]dict.VertexID, nVerts),
	}
	clear(seen)
	for v := 0; v < n; v++ {
		nbs := adj(dict.VertexID(v))
		first := len(p.types)
		for _, nb := range nbs {
			for _, t := range nb.Types {
				if seen[t] != v+1 {
					seen[t] = v + 1
					next[t] = 0
					p.types = append(p.types, t)
				}
				next[t]++
			}
		}
		slices.Sort(p.types[first:])
		for i := first; i < len(p.types); i++ {
			t := p.types[i]
			p.lOff[i+1] = p.lOff[i] + next[t]
			next[t] = p.lOff[i]
		}
		for _, nb := range nbs {
			for _, t := range nb.Types {
				p.verts[next[t]] = nb.V
				next[t]++
			}
		}
		p.vOff[v+1] = uint32(len(p.types))
	}
	return p
}

// list returns the neighbours of v reached through edge type t, a
// sub-slice of verts; nil when v has no such edge.
//
//amber:hotloop
func (p *postings) list(v dict.VertexID, t dict.EdgeType) []dict.VertexID {
	lo := p.vOff[v]
	i, ok := slices.BinarySearch(p.types[lo:p.vOff[v+1]], t)
	if !ok {
		return nil
	}
	i += int(lo)
	return p.verts[p.lOff[i]:p.lOff[i+1]]
}

// Bytes reports the exact size of N's posting arrays (every element is a
// 4-byte id or offset).
func (ni *NeighborhoodIndex) Bytes() int64 {
	var n int
	for _, p := range []*postings{&ni.in, &ni.out} {
		n += len(p.vOff) + len(p.types) + len(p.lOff) + len(p.verts)
	}
	return 4 * int64(n)
}

// Neighbors implements the paper's N probe: given matched data vertex v,
// a direction, and a multi-edge T′ (sorted, duplicate-free), return
//
//	dir=Incoming: {v′ | (v′,v) ∈ E ∧ T′ ⊆ LE(v′,v)}
//	dir=Outgoing: {v′ | (v,v′) ∈ E ∧ T′ ⊆ LE(v,v′)}
//
// sorted ascending. The answer may share N's arrays and must not be
// modified.
//
//amber:hotloop
func (ni *NeighborhoodIndex) Neighbors(v dict.VertexID, dir Direction, types []dict.EdgeType) []dict.VertexID {
	p := &ni.out
	if dir == Incoming {
		p = &ni.in
	}
	if int(v)+1 >= len(p.vOff) {
		return nil
	}
	return IntersectPostings(types, func(t dict.EdgeType) []dict.VertexID { return p.list(v, t) })
}

// Cardinalities are per-edge-type occurrence counts gathered while the
// ensemble is built. They are the data statistics the cost-based query
// planner (internal/plan) consumes: together with AttributeIndex list
// lengths and neighbourhood-index probes they let the planner estimate
// candidate-set sizes before any matching happens.
type Cardinalities struct {
	// OutVertices[t] and InVertices[t] count the vertices with at least
	// one outgoing (resp. incoming) multi-edge whose label set contains
	// edge type t.
	OutVertices, InVertices []int
	// Edges[t] counts the directed vertex pairs whose multi-edge label
	// set contains edge type t.
	Edges []int
	// NumVertices mirrors the graph's vertex count (the estimate ceiling).
	NumVertices int
}

// VerticesWith reports how many vertices have at least one edge of type t
// on the given side. Unknown types report zero.
func (c *Cardinalities) VerticesWith(dir Direction, t dict.EdgeType) int {
	lst := c.OutVertices
	if dir == Incoming {
		lst = c.InVertices
	}
	if int(t) >= len(lst) {
		return 0
	}
	return lst[t]
}

// Fanout estimates how many neighbours a single probe of direction dir at
// a bound vertex returns for edge type t: the average multi-edge count per
// vertex that has any such edge. Unknown types report zero.
func (c *Cardinalities) Fanout(dir Direction, t dict.EdgeType) float64 {
	if int(t) >= len(c.Edges) {
		return 0
	}
	src := c.VerticesWith(dir, t)
	if src == 0 {
		return 0
	}
	return float64(c.Edges[t]) / float64(src)
}

// BuildCardinalities reads the statistics off N: a vertex has an edge of
// type t on one side iff t is among its types on that side, and the
// outgoing postings of t are exactly the directed pairs carrying t.
func BuildCardinalities(g *multigraph.Graph, n *NeighborhoodIndex) *Cardinalities {
	nT := g.NumEdgeTypes()
	c := &Cardinalities{
		OutVertices: make([]int, nT),
		InVertices:  make([]int, nT),
		Edges:       make([]int, nT),
		NumVertices: g.NumVertices(),
	}
	for i, t := range n.out.types {
		c.OutVertices[t]++
		c.Edges[t] += int(n.out.lOff[i+1] - n.out.lOff[i])
	}
	for _, t := range n.in.types {
		c.InVertices[t]++
	}
	return c
}

// Reader is the probe surface the online stage (internal/plan,
// internal/engine) matches against. The canonical implementation is
// GraphReader — a frozen graph plus its ensemble — but a mutation
// overlay (internal/delta) implements the same surface over base +
// delta, which is how live updates reach the engine without rebuilding
// the ensemble per write.
//
// Contract: every returned vertex list is sorted ascending and must not
// be modified. SignatureCandidates may over-approximate (Lemma 1 — the
// engine verifies every query multi-edge with exact probes later); all
// other probes are exact.
type Reader interface {
	// SignatureCandidates returns a superset of the vertices whose
	// signature can embed the query synopsis q (already in AsQuery form).
	SignatureCandidates(q multigraph.Synopsis) []dict.VertexID
	// Neighbors is the N probe: neighbours of v on side dir whose
	// multi-edge label set contains every type in types.
	Neighbors(v dict.VertexID, dir Direction, types []dict.EdgeType) []dict.VertexID
	// AttrCandidates returns the vertices carrying every attribute in
	// attrs (nil when attrs is empty).
	AttrCandidates(attrs []dict.AttrID) []dict.VertexID
	// HasAttrs reports whether v carries every attribute in attrs
	// (sorted ascending).
	HasAttrs(v dict.VertexID, attrs []dict.AttrID) bool
	// VertexAttrs returns v's sorted attribute ids (the paper's LV(v)).
	// The result must not be modified.
	VertexAttrs(v dict.VertexID) []dict.AttrID
	// HasEdgeTypes reports whether the edge from→to exists with a label
	// set containing every type in types (sorted ascending).
	HasEdgeTypes(from, to dict.VertexID, types []dict.EdgeType) bool
	// Cardinalities exposes the planner statistics (may be nil).
	Cardinalities() *Cardinalities
}

// GraphReader adapts a frozen graph and its index ensemble to the Reader
// probe surface. The zero value is not usable; both fields must be set.
type GraphReader struct {
	G  *multigraph.Graph
	Ix *Index
}

// NewReader bundles a graph with its ensemble.
func NewReader(g *multigraph.Graph, ix *Index) GraphReader {
	return GraphReader{G: g, Ix: ix}
}

// SignatureCandidates probes the R-tree S.
func (r GraphReader) SignatureCandidates(q multigraph.Synopsis) []dict.VertexID {
	return r.Ix.S.Candidates(q)
}

// Neighbors probes the neighbourhood index N.
func (r GraphReader) Neighbors(v dict.VertexID, dir Direction, types []dict.EdgeType) []dict.VertexID {
	return r.Ix.N.Neighbors(v, dir, types)
}

// AttrCandidates probes the inverted index A.
func (r GraphReader) AttrCandidates(attrs []dict.AttrID) []dict.VertexID {
	return r.Ix.A.Candidates(attrs)
}

// HasAttrs checks the graph's attribute sets.
func (r GraphReader) HasAttrs(v dict.VertexID, attrs []dict.AttrID) bool {
	return r.G.HasAttrs(v, attrs)
}

// VertexAttrs returns the graph's attribute set of v.
func (r GraphReader) VertexAttrs(v dict.VertexID) []dict.AttrID {
	return r.G.Attrs(v)
}

// HasEdgeTypes checks the graph's adjacency.
func (r GraphReader) HasEdgeTypes(from, to dict.VertexID, types []dict.EdgeType) bool {
	return r.G.HasEdgeTypes(from, to, types)
}

// Cardinalities exposes the planner statistics.
func (r GraphReader) Cardinalities() *Cardinalities { return r.Ix.Card }

// Index is the ensemble I := {A, S, N} plus the cardinality statistics
// gathered alongside it.
type Index struct {
	A *AttributeIndex
	S *SignatureIndex
	N *NeighborhoodIndex
	// Card holds per-edge-type cardinalities for the cost-based planner.
	Card *Cardinalities
}

// Build constructs all three indexes and the planner statistics for g.
func Build(g *multigraph.Graph) *Index {
	n := BuildNeighborhoodIndex(g)
	return &Index{
		A:    BuildAttributeIndex(g),
		S:    BuildSignatureIndex(g),
		N:    n,
		Card: BuildCardinalities(g, n),
	}
}
