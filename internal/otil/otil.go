// Package otil implements the trie of the Ordered Trie with Inverted Lists
// of Terrovitis et al. (CIKM 2006), the structure the AMbER paper uses for
// the vertex neighbourhood index N (Section 4.3, Figure 3).
//
// One trie indexes the multi-edges incident on a single data vertex in one
// direction. Each multi-edge — the ordered set of edge types shared with
// one neighbour — is inserted as a root-to-node path, and the neighbour is
// recorded at the terminal trie node. A lookup for a query multi-edge T′
// walks the trie with skip-descent and returns every neighbour whose
// multi-edge is a superset of T′.
//
// The running system answers N probes from the OTIL's inverted lists
// alone, stored flat in internal/index. The trie is kept here as the
// reference implementation that tests and the ablation benchmarks compare
// against. The package also holds the sorted-id-list helpers the online
// stage shares.
package otil

import (
	"cmp"
	"slices"

	"repro/internal/dict"
)

// tnode is one trie node; children are kept sorted by edge type.
type tnode struct {
	children []childRef
	// neighbours whose full multi-edge ends at this node
	terminal []dict.VertexID
}

type childRef struct {
	t dict.EdgeType
	n *tnode
}

func (n *tnode) ensureChild(t dict.EdgeType) *tnode {
	i, ok := slices.BinarySearchFunc(n.children, t, func(c childRef, t dict.EdgeType) int { return cmp.Compare(c.t, t) })
	if !ok {
		n.children = slices.Insert(n.children, i, childRef{t: t, n: &tnode{}})
	}
	return n.children[i].n
}

// Trie indexes the multi-edges of one vertex in one direction.
// The zero value is ready to use.
type Trie struct {
	root tnode
}

// Insert records that neighbour v is connected through the multi-edge
// types, which must be sorted ascending and duplicate-free (the universal
// order the paper requires). An empty multi-edge is ignored.
func (t *Trie) Insert(types []dict.EdgeType, v dict.VertexID) {
	if len(types) == 0 {
		return
	}
	n := &t.root
	for _, et := range types {
		n = n.ensureChild(et)
	}
	n.terminal = append(n.terminal, v)
}

// LookupTrie returns, sorted ascending and duplicate-free, every neighbour
// whose multi-edge is a superset of types (sorted ascending), by walking
// the trie with skip-descent. An empty query returns nil — the engine
// never asks for unconstrained neighbours through the index.
func (t *Trie) LookupTrie(types []dict.EdgeType) []dict.VertexID {
	if len(types) == 0 {
		return nil
	}
	var out []dict.VertexID
	walkSuperset(&t.root, types, &out)
	slices.Sort(out)
	return slices.Compact(out)
}

// walkSuperset visits all terminal nodes whose path contains every type in
// want (sorted). Because paths are ordered ascending, a child with type
// greater than want[0] can never contain want[0] deeper down.
func walkSuperset(n *tnode, want []dict.EdgeType, out *[]dict.VertexID) {
	if len(want) == 0 {
		collectTerminals(n, out)
		return
	}
	target := want[0]
	for _, c := range n.children {
		switch {
		case c.t < target:
			walkSuperset(c.n, want, out) // skip an extra symbol
		case c.t == target:
			walkSuperset(c.n, want[1:], out) // consume the query symbol
		default:
			return // children are ordered; target can no longer appear
		}
	}
}

// collectTerminals gathers the terminals of the whole subtree.
func collectTerminals(n *tnode, out *[]dict.VertexID) {
	*out = append(*out, n.terminal...)
	for _, c := range n.children {
		collectTerminals(c.n, out)
	}
}

// IntersectSorted returns the intersection of two ascending id lists.
func IntersectSorted[T ~uint32](a, b []T) []T {
	if len(a) > len(b) {
		a, b = b, a
	}
	var out []T
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// ContainsSorted reports whether v occurs in the ascending id list, by
// binary search.
func ContainsSorted[T ~uint32](lst []T, v T) bool {
	lo, hi := 0, len(lst)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lst[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(lst) && lst[lo] == v
}
