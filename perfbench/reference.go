package main

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// refStore is the workloads' reference: a plain triple index that counts
// the solutions of a basic graph pattern by variable elimination, with
// SPARQL's semantics — a variable binds any term, literals included. It
// shares no code or algorithm with the engine under test, and needs no
// time budget: a star of 30 patterns reduces to one sum over its centre.
type refStore struct {
	ids  map[rdf.Term]int32
	byPS map[pairKey][]int32 // objects of (predicate, subject)
	byPO map[pairKey][]int32 // subjects of (predicate, object)
	byP  map[string][]entry  // (subject, object) pairs of a predicate
	// degrees memoizes byP summed over the object (key p+"\x00s") or the
	// subject (p+"\x00o"): a star's leaves all reduce to these.
	degrees map[string]*factor
}

type pairKey struct {
	p string
	t int32
}

// maxArity bounds the variables of one intermediate factor.
const maxArity = 4

// tuple holds one assignment of a factor's variables, as term ids.
type tuple [maxArity]int32

// entry is one assignment and its number of solutions.
type entry struct {
	t tuple
	n uint64
}

// factor maps assignments of vars to counts; its tuples are distinct.
type factor struct {
	vars []string
	rows []entry
	pred string // set on a pattern factor over (subject, object) of pred
}

var (
	// errRefOverflow reports a solution count beyond int64.
	errRefOverflow = errors.New("reference: solution count overflows")
	// errRefTooWide reports an elimination step over more than maxArity
	// variables.
	errRefTooWide = errors.New("reference: intermediate factor too wide")
)

func newRefStore(triples []rdf.Triple) *refStore {
	st := &refStore{ids: map[rdf.Term]int32{}, byPS: map[pairKey][]int32{}, byPO: map[pairKey][]int32{}, byP: map[string][]entry{}, degrees: map[string]*factor{}}
	id := func(t rdf.Term) int32 {
		v, ok := st.ids[t]
		if !ok {
			v = int32(len(st.ids))
			st.ids[t] = v
		}
		return v
	}
	seen := map[rdf.Triple]bool{}
	for _, t := range triples {
		if seen[t] {
			continue
		}
		seen[t] = true
		s, o, p := id(t.S), id(t.O), t.P.Value
		st.byPS[pairKey{p, s}] = append(st.byPS[pairKey{p, s}], o)
		st.byPO[pairKey{p, o}] = append(st.byPO[pairKey{p, o}], s)
		st.byP[p] = append(st.byP[p], entry{tuple{s, o}, 1})
	}
	return st
}

// count returns the number of solutions of the query's patterns: the sum
// over all assignments of the product of the patterns' match indicators,
// computed by summing out one variable at a time.
func (st *refStore) count(q *sparql.Query) (int64, error) {
	var fs []*factor
	for _, p := range q.Patterns {
		if p.P.Kind != sparql.IRI {
			return 0, fmt.Errorf("reference: variable predicates are not supported")
		}
		fs = append(fs, st.patternFactor(p))
	}
	for {
		v, ok := nextVar(fs)
		if !ok {
			break
		}
		var with, rest []*factor
		for _, f := range fs {
			if slices.Contains(f.vars, v) {
				with = append(with, f)
			} else {
				rest = append(rest, f)
			}
		}
		if len(with) == 1 && with[0].pred != "" {
			fs = append(rest, st.degree(with[0], v))
			continue
		}
		slices.SortStableFunc(with, func(a, b *factor) int { return len(a.rows) - len(b.rows) })
		prod := with[0]
		for _, f := range with[1:] {
			var err error
			if prod, err = join(prod, f); err != nil {
				return 0, err
			}
		}
		g, err := sumOut(prod, v)
		if err != nil {
			return 0, err
		}
		fs = append(rest, g)
	}
	total := uint64(1)
	for _, f := range fs {
		var n uint64 // a factor over no variables holds at most one row
		if len(f.rows) > 0 {
			n = f.rows[0].n
		}
		hi, lo := bits.Mul64(total, n)
		if hi != 0 {
			return 0, errRefOverflow
		}
		total = lo
	}
	if total > math.MaxInt64 {
		return 0, errRefOverflow
	}
	return int64(total), nil
}

// degree sums a (subject, object) pattern factor over v, from the memo.
func (st *refStore) degree(f *factor, v string) *factor {
	keep, end := f.vars[0], "\x00s"
	if keep == v {
		keep, end = f.vars[1], "\x00o"
	}
	k := f.pred + end
	g, ok := st.degrees[k]
	if !ok {
		g, _ = sumOut(f, v) // degrees are bounded by the triple count
		st.degrees[k] = g
	}
	return &factor{vars: []string{keep}, rows: g.rows}
}

// patternFactor is one pattern's match indicator over its variables.
func (st *refStore) patternFactor(p sparql.TriplePattern) *factor {
	sVar, oVar := p.S.Kind == sparql.Var, p.O.Kind == sparql.Var
	if sVar && oVar && p.S.Value != p.O.Value {
		return &factor{vars: []string{p.S.Value, p.O.Value}, rows: st.byP[p.P.Value], pred: p.P.Value}
	}
	f := &factor{}
	constID := func(t sparql.Term) (int32, bool) {
		id, ok := st.ids[t.RDF()]
		return id, ok
	}
	switch {
	case sVar: // ?x p ?x, or ?x p o
		f.vars = []string{p.S.Value}
		if oVar {
			for _, e := range st.byP[p.P.Value] {
				if e.t[0] == e.t[1] {
					f.rows = append(f.rows, entry{tuple{e.t[0]}, 1})
				}
			}
		} else if o, ok := constID(p.O); ok {
			for _, s := range st.byPO[pairKey{p.P.Value, o}] {
				f.rows = append(f.rows, entry{tuple{s}, 1})
			}
		}
	case oVar: // s p ?y
		f.vars = []string{p.O.Value}
		if s, ok := constID(p.S); ok {
			for _, o := range st.byPS[pairKey{p.P.Value, s}] {
				f.rows = append(f.rows, entry{tuple{o}, 1})
			}
		}
	default: // s p o
		s, sok := constID(p.S)
		o, ook := constID(p.O)
		if sok && ook && slices.Contains(st.byPS[pairKey{p.P.Value, s}], o) {
			f.rows = []entry{{n: 1}}
		}
	}
	return f
}

// nextVar picks the variable whose elimination yields the smallest
// scope, ties broken by name so the order is deterministic.
func nextVar(fs []*factor) (string, bool) {
	scope := map[string]map[string]bool{}
	for _, f := range fs {
		for _, v := range f.vars {
			if scope[v] == nil {
				scope[v] = map[string]bool{}
			}
			for _, u := range f.vars {
				if u != v {
					scope[v][u] = true
				}
			}
		}
	}
	best, bestN := "", -1
	for v, s := range scope {
		if bestN < 0 || len(s) < bestN || (len(s) == bestN && v < best) {
			best, bestN = v, len(s)
		}
	}
	return best, bestN >= 0
}

// join multiplies two factors on their shared variables, indexing the
// smaller one.
func join(a, b *factor) (*factor, error) {
	aPos := map[string]int{}
	for i, v := range a.vars {
		aPos[v] = i
	}
	out := &factor{vars: slices.Clone(a.vars)}
	var shared [][2]int // positions in a and b
	var bOnly []int     // positions in b
	for j, v := range b.vars {
		if i, ok := aPos[v]; ok {
			shared = append(shared, [2]int{i, j})
		} else {
			bOnly = append(bOnly, j)
			out.vars = append(out.vars, v)
		}
	}
	if len(out.vars) > maxArity {
		return nil, errRefTooWide
	}
	sharedKey := func(e entry, side int) tuple {
		var sk tuple
		for i, s := range shared {
			sk[i] = e.t[s[side]]
		}
		return sk
	}
	emit := func(ea, eb entry) error {
		hi, n := bits.Mul64(ea.n, eb.n)
		if hi != 0 {
			return errRefOverflow
		}
		t := ea.t
		for i, j := range bOnly {
			t[len(a.vars)+i] = eb.t[j]
		}
		out.rows = append(out.rows, entry{t, n})
		return nil
	}
	if len(a.rows) <= len(b.rows) {
		index := make(map[tuple][]int, len(a.rows))
		for k, e := range a.rows {
			sk := sharedKey(e, 0)
			index[sk] = append(index[sk], k)
		}
		for _, eb := range b.rows {
			for _, k := range index[sharedKey(eb, 1)] {
				if err := emit(a.rows[k], eb); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}
	index := make(map[tuple][]int, len(b.rows))
	for k, e := range b.rows {
		sk := sharedKey(e, 1)
		index[sk] = append(index[sk], k)
	}
	for _, ea := range a.rows {
		for _, k := range index[sharedKey(ea, 0)] {
			if err := emit(ea, b.rows[k]); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// sumOut sums a factor over every value of v.
func sumOut(f *factor, v string) (*factor, error) {
	at := slices.Index(f.vars, v)
	out := &factor{vars: append(slices.Clone(f.vars[:at]), f.vars[at+1:]...)}
	sums := make(map[tuple]uint64, len(f.rows))
	for _, e := range f.rows {
		t := e.t
		copy(t[at:], t[at+1:])
		t[maxArity-1] = 0
		n := sums[t] + e.n
		if n < e.n {
			return nil, errRefOverflow
		}
		sums[t] = n
	}
	for t, n := range sums {
		out.rows = append(out.rows, entry{t, n})
	}
	return out, nil
}
