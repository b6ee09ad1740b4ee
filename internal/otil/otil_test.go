package otil

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dict"
)

func types(ts ...dict.EdgeType) []dict.EdgeType { return ts }
func verts(vs ...dict.VertexID) []dict.VertexID { return vs }

func equalVerts(a, b []dict.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildFigure3 reproduces the N+ trie of the paper's Figure 3b: the
// incoming neighbourhood of data vertex v2 (London). Multi-edges:
//
//	v3 —t1→ v2,  v1 —{t4,t5}→ v2,  v7 —t5→ v2,  v0 —t6→ v2
func buildFigure3() *Trie {
	var tr Trie
	tr.Insert(types(1), 3)    // England, hasCapital
	tr.Insert(types(4, 5), 1) // Amy, {diedIn, wasBornIn}
	tr.Insert(types(5), 7)    // Nolan, wasBornIn
	tr.Insert(types(6), 0)    // Music_Band, wasFormedIn
	return &tr
}

func TestFigure3SingleTypeLookups(t *testing.T) {
	tr := buildFigure3()
	// Paper example: fetching all data vertices with edge type t5 directed
	// towards v2 yields {v1, v7}.
	if got := tr.LookupTrie(types(5)); !equalVerts(got, verts(1, 7)) {
		t.Errorf("LookupTrie(t5) = %v, want [1 7]", got)
	}
	if got := tr.LookupTrie(types(1)); !equalVerts(got, verts(3)) {
		t.Errorf("LookupTrie(t1) = %v, want [3]", got)
	}
	if got := tr.LookupTrie(types(4)); !equalVerts(got, verts(1)) {
		t.Errorf("LookupTrie(t4) = %v, want [1]", got)
	}
	if got := tr.LookupTrie(types(9)); got != nil {
		t.Errorf("LookupTrie(absent type) = %v, want nil", got)
	}
}

func TestFigure3MultiTypeLookup(t *testing.T) {
	tr := buildFigure3()
	if got := tr.LookupTrie(types(4, 5)); !equalVerts(got, verts(1)) {
		t.Errorf("LookupTrie({t4,t5}) = %v, want [1]", got)
	}
	// No neighbour carries both t1 and t5.
	if got := tr.LookupTrie(types(1, 5)); got != nil {
		t.Errorf("LookupTrie({t1,t5}) = %v, want nil", got)
	}
}

func TestEmptyQueryAndEmptyTrie(t *testing.T) {
	var tr Trie
	if got := tr.LookupTrie(types(1)); got != nil {
		t.Errorf("lookup on empty trie = %v", got)
	}
	full := buildFigure3()
	if got := full.LookupTrie(nil); got != nil {
		t.Errorf("empty query = %v, want nil", got)
	}
}

func TestInsertEmptyMultiEdgeIgnored(t *testing.T) {
	var tr Trie
	tr.Insert(nil, 9)
	if len(tr.root.children) != 0 || len(tr.root.terminal) != 0 {
		t.Error("empty multi-edge should be ignored")
	}
}

// figure3Edges lists the multi-edges buildFigure3 inserts, by neighbour.
var figure3Edges = map[dict.VertexID][]dict.EdgeType{
	3: types(1), 1: types(4, 5), 7: types(5), 0: types(6),
}

func TestTrieWalkAgreesWithBruteForce(t *testing.T) {
	tr := buildFigure3()
	queries := [][]dict.EdgeType{
		types(1), types(4), types(5), types(6), types(4, 5), types(1, 4), types(7),
	}
	for _, q := range queries {
		if got, want := tr.LookupTrie(q), bruteForce(figure3Edges, q); !equalVerts(got, want) {
			t.Errorf("query %v: trie %v, brute force %v", q, got, want)
		}
	}
}

// bruteForce answers a superset query by scanning every multi-edge.
func bruteForce(edges map[dict.VertexID][]dict.EdgeType, query []dict.EdgeType) []dict.VertexID {
	var out []dict.VertexID
	for v, me := range edges {
		if containsAll(me, query) {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestSharedPrefixPaths(t *testing.T) {
	var tr Trie
	tr.Insert(types(1, 2), 10)
	tr.Insert(types(1, 3), 11)
	tr.Insert(types(1), 12)
	tr.Insert(types(1, 2, 3), 13)

	if got := tr.LookupTrie(types(1)); !equalVerts(got, verts(10, 11, 12, 13)) {
		t.Errorf("LookupTrie(1) = %v", got)
	}
	if got := tr.LookupTrie(types(1, 2)); !equalVerts(got, verts(10, 13)) {
		t.Errorf("LookupTrie(1,2) = %v", got)
	}
	if got := tr.LookupTrie(types(2, 3)); !equalVerts(got, verts(13)) {
		t.Errorf("LookupTrie(2,3) = %v", got)
	}
	// Skip-descent must find type 3 even when preceded by unmatched types.
	if got := tr.LookupTrie(types(3)); !equalVerts(got, verts(11, 13)) {
		t.Errorf("LookupTrie(3) = %v", got)
	}
}

func TestDuplicateInsertsCollapse(t *testing.T) {
	var tr Trie
	tr.Insert(types(2), 5)
	tr.Insert(types(2), 5)
	if got := tr.LookupTrie(types(2)); !equalVerts(got, verts(5)) {
		t.Errorf("lookup after duplicate insert = %v", got)
	}
}

func TestInsertAfterLookup(t *testing.T) {
	var tr Trie
	tr.Insert(types(1), 1)
	if got := tr.LookupTrie(types(1)); !equalVerts(got, verts(1)) {
		t.Fatalf("first lookup = %v", got)
	}
	tr.Insert(types(1), 0) // out of order on purpose
	if got := tr.LookupTrie(types(1)); !equalVerts(got, verts(0, 1)) {
		t.Errorf("lookup after re-insert = %v, want the new neighbour, sorted", got)
	}
}

// TestLookupEquivalenceProperty: on random tries, the trie walk agrees
// with brute force over the inserted multi-edges for all query sizes.
func TestLookupEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr Trie
		const nTypes = 8
		edges := make(map[dict.VertexID][]dict.EdgeType)
		for v := dict.VertexID(0); v < 30; v++ {
			k := 1 + rng.Intn(4)
			set := map[dict.EdgeType]struct{}{}
			for len(set) < k {
				set[dict.EdgeType(rng.Intn(nTypes))] = struct{}{}
			}
			me := make([]dict.EdgeType, 0, k)
			for et := range set {
				me = append(me, et)
			}
			sortTypes(me)
			edges[v] = me
			tr.Insert(me, v)
		}
		for q := 0; q < 25; q++ {
			k := 1 + rng.Intn(3)
			set := map[dict.EdgeType]struct{}{}
			for len(set) < k {
				set[dict.EdgeType(rng.Intn(nTypes))] = struct{}{}
			}
			query := make([]dict.EdgeType, 0, k)
			for et := range set {
				query = append(query, et)
			}
			sortTypes(query)

			if !equalVerts(tr.LookupTrie(query), bruteForce(edges, query)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func sortTypes(ts []dict.EdgeType) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j-1] > ts[j]; j-- {
			ts[j-1], ts[j] = ts[j], ts[j-1]
		}
	}
}

func containsAll(have, want []dict.EdgeType) bool {
	i := 0
	for _, w := range want {
		for i < len(have) && have[i] < w {
			i++
		}
		if i >= len(have) || have[i] != w {
			return false
		}
		i++
	}
	return true
}

func TestIntersectSorted(t *testing.T) {
	tests := []struct {
		a, b, want []dict.VertexID
	}{
		{verts(1, 2, 3), verts(2, 3, 4), verts(2, 3)},
		{verts(1, 2), verts(3, 4), nil},
		{nil, verts(1), nil},
		{verts(5), verts(5), verts(5)},
		{verts(1, 3, 5, 7, 9), verts(3, 7), verts(3, 7)},
	}
	for _, tc := range tests {
		if got := IntersectSorted(tc.a, tc.b); !equalVerts(got, tc.want) {
			t.Errorf("IntersectSorted(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}
