package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/datagen"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

const ubNS = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"

func ub(local string) string { return ubNS + local }

// lubmInputs are the serve workloads' generated inputs: the LUBM corpus,
// the query pool and what the write batches draw from. The corpus is
// kept only as N-Triples: parsed triples would be a large pointer-rich
// heap beside the program's, lengthening every one of its collections.
type lubmInputs struct {
	nt   []byte
	pool *pool
	// depts lists the departments; deptCourses each one's courses, for
	// new enrolments.
	depts       []string
	deptCourses map[string][]string
	// enrolments are the corpus's takesCourse triples, shuffled by seed:
	// the DELETE DATA batches consume them in order, split by client.
	enrolments []rdf.Triple
}

// template is one kind of application query; its instances differ in
// the constant they are anchored on.
type template struct {
	weight float64   // share of requests drawing this template
	first  int       // index of the first instance in the pool
	cdf    []float64 // cumulative rank weights of the instances
}

// pool is the serve workloads' query pool: every instance of every
// template, with the row count each returns on the initial corpus.
type pool struct {
	templates []*template
	texts     []string
	vars      [][]string
	rows      []int64
	tcdf      []float64 // cumulative template weights
}

// zipfS is the skew of instance popularity within the templates with
// many instances: rank k is drawn with probability ∝ 1/k^zipfS. The
// templates with a handful of large-result instances draw them
// uniformly.
const zipfS = 1.0

// makeLUBMInputs generates LUBM and the query pool. The pool holds a few
// thousand distinct texts, several times the server's 256-entry result
// cache, so misses carry real weight; one template returns more than
// MaxCacheRows (10000) rows and is never cached.
func makeLUBMInputs(r *run) (*lubmInputs, error) {
	triples := datagen.LUBM(datagen.LUBMConfig{Universities: r.size.universities, Seed: corpusSeed, Compact: r.size.compactLUBM})
	nt, err := encodeNT(triples)
	if err != nil {
		return nil, err
	}
	in := &lubmInputs{nt: nt, deptCourses: map[string][]string{}}
	var univs, profs, courses []string
	deptOf := map[string]string{}
	seen := map[string]bool{}
	addOnce := func(list *[]string, v string) {
		if !seen[v] {
			seen[v] = true
			*list = append(*list, v)
		}
	}
	for _, t := range triples {
		switch t.P.Value {
		case ub("subOrganizationOf"):
			addOnce(&in.depts, t.S.Value)
			addOnce(&univs, t.O.Value)
		case ub("worksFor"):
			addOnce(&profs, t.S.Value)
			deptOf[t.S.Value] = t.O.Value
		case ub("takesCourse"):
			in.enrolments = append(in.enrolments, t)
		}
	}
	for _, t := range triples {
		if t.P.Value == ub("teacherOf") {
			addOnce(&courses, t.O.Value)
			d := deptOf[t.S.Value]
			in.deptCourses[d] = append(in.deptCourses[d], t.O.Value)
		}
	}
	rand.New(rand.NewSource(r.seed)).Shuffle(len(in.enrolments), func(i, j int) {
		in.enrolments[i], in.enrolments[j] = in.enrolments[j], in.enrolments[i]
	})

	// The pool, like the corpus, is fixed: which instances are popular
	// decides how much a hit or a miss costs, and a pool drawn per seed
	// moved queries_per_s by some 15% between seeds. The seed draws the
	// request sequences from it.
	rng := rand.New(rand.NewSource(corpusSeed))
	const prefix = "PREFIX ub: <" + ubNS + ">\n"
	p := &pool{}
	// add appends a template's instances, one per anchor (at most limit);
	// the shuffled order of the anchors is their rank, drawn with
	// probability ∝ 1/rank^skew.
	add := func(weight, skew float64, anchors []string, limit int, query func(a string) (string, []string)) {
		anchors = append([]string(nil), anchors...)
		rng.Shuffle(len(anchors), func(i, j int) { anchors[i], anchors[j] = anchors[j], anchors[i] })
		if limit > 0 && len(anchors) > limit {
			anchors = anchors[:limit]
		}
		t := &template{weight: weight, first: len(p.texts)}
		sum := 0.0
		for k, a := range anchors {
			sum += 1 / math.Pow(float64(k+1), skew)
			t.cdf = append(t.cdf, sum)
			text, vars := query(a)
			p.texts = append(p.texts, prefix+text)
			p.vars = append(p.vars, vars)
		}
		p.templates = append(p.templates, t)
	}
	per := r.size.perTemplate
	add(0.20, zipfS, in.depts, 0, func(d string) (string, []string) {
		return fmt.Sprintf("SELECT ?s ?n WHERE { ?s ub:memberOf <%s> . ?s ub:name ?n . }", d), []string{"s", "n"}
	})
	add(0.15, zipfS, in.depts, 0, func(d string) (string, []string) {
		return fmt.Sprintf("SELECT ?s ?p WHERE { ?s ub:advisor ?p . ?p ub:worksFor <%s> . }", d), []string{"s", "p"}
	})
	add(0.15, zipfS, in.depts, 0, func(d string) (string, []string) {
		return fmt.Sprintf("SELECT ?p ?e ?t WHERE { ?p ub:worksFor <%s> . ?p ub:emailAddress ?e . ?p ub:telephone ?t . }", d),
			[]string{"p", "e", "t"}
	})
	add(0.20, zipfS, profs, per, func(prof string) (string, []string) {
		return fmt.Sprintf("SELECT ?c ?s WHERE { <%s> ub:teacherOf ?c . ?s ub:takesCourse ?c . }", prof), []string{"c", "s"}
	})
	add(0.297, zipfS, courses, per, func(c string) (string, []string) {
		return fmt.Sprintf("SELECT ?s ?n WHERE { ?s ub:takesCourse <%s> . ?s ub:name ?n . }", c), []string{"s", "n"}
	})
	// The large-result templates together draw 0.3% of requests: they
	// run the never-cached path, and with under 1% of the samples they
	// stay above query_p99_ms, which then tracks the bulk of the misses
	// rather than how many of a few very slow requests a run happened to
	// draw.
	add(0.002, 0, univs, 0, func(u string) (string, []string) {
		return fmt.Sprintf("SELECT ?s ?d WHERE { ?s ub:memberOf ?d . ?d ub:subOrganizationOf <%s> . }", u), []string{"s", "d"}
	})
	// Renaming the variables makes distinct texts, and cache keys, of one
	// query whose result is too large to cache anyway.
	add(0.001, 0, []string{"s p", "x y"}, 0, func(v string) (string, []string) {
		vs := strings.Fields(v)
		return fmt.Sprintf("SELECT ?%s ?%s WHERE { ?%s ub:advisor ?%s . }", vs[0], vs[1], vs[0], vs[1]), vs
	})
	sum := 0.0
	for _, t := range p.templates {
		sum += t.weight
		p.tcdf = append(p.tcdf, sum)
	}
	rows, err := referenceRows(triples, p.texts)
	if err != nil {
		return nil, err
	}
	p.rows = rows
	in.pool = p
	return in, nil
}

// referenceRows answers every pool query on the reference store.
func referenceRows(triples []rdf.Triple, texts []string) ([]int64, error) {
	st := newRefStore(triples)
	out := make([]int64, len(texts))
	for i, text := range texts {
		q, err := sparql.Parse(text)
		if err != nil {
			return nil, err
		}
		if out[i], err = st.count(q); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// draw picks one pool entry: a template by weight, then an instance by
// its rank.
func (p *pool) draw(rng *rand.Rand) int {
	t := p.templates[pick(p.tcdf, rng.Float64())]
	return t.first + pick(t.cdf, rng.Float64())
}

// pick returns the index of the first cumulative weight above u·total.
func pick(cdf []float64, u float64) int {
	x := u * cdf[len(cdf)-1]
	i := sort.SearchFloat64s(cdf, x)
	return min(i, len(cdf)-1)
}

// request is one operation of a serve client: a pool query, or a write
// batch (serve-mixed).
type request struct {
	query int // pool index; -1 for a write
	text  string
	adds  []rdf.Triple
	dels  []rdf.Triple
}

// requestGen produces one client's request sequence. On serve-mixed every
// fourth request is a write, alternating INSERT DATA of new enrolments
// and DELETE DATA of corpus enrolments from the client's share.
type requestGen struct {
	in     *lubmInputs
	rng    *rand.Rand
	client int
	mixed  bool
	batch  int
	n      int // requests produced
	writes int
	delPos int
}

func newRequestGen(in *lubmInputs, seed int64, client int, mixed bool, batch int) *requestGen {
	return &requestGen{in: in, rng: rand.New(rand.NewSource(seed*7919 + int64(client))), client: client, mixed: mixed, batch: batch}
}

func (g *requestGen) next() request {
	g.n++
	if !g.mixed || g.n%4 != 0 {
		i := g.in.pool.draw(g.rng)
		return request{query: i, text: g.in.pool.texts[i]}
	}
	g.writes++
	if g.writes%2 == 1 {
		return g.insert()
	}
	return g.delete()
}

// insert enrols batch/4 new students, each in a department and two of
// its courses.
func (g *requestGen) insert() request {
	var adds []rdf.Triple
	for j := 0; len(adds)+4 <= g.batch; j++ {
		d := g.in.depts[g.rng.Intn(len(g.in.depts))]
		cs := g.in.deptCourses[d]
		s := rdf.NewIRI(fmt.Sprintf("%s/BenchStudent%d_%d_%d", d, g.client, g.writes, j))
		adds = append(adds,
			rdf.Triple{S: s, P: rdf.NewIRI(ub("memberOf")), O: rdf.NewIRI(d)},
			rdf.Triple{S: s, P: rdf.NewIRI(ub("name")), O: rdf.NewLiteral(fmt.Sprintf("BenchStudent%d_%d_%d", g.client, g.writes, j))},
			rdf.Triple{S: s, P: rdf.NewIRI(ub("takesCourse")), O: rdf.NewIRI(cs[g.rng.Intn(len(cs))])},
			rdf.Triple{S: s, P: rdf.NewIRI(ub("takesCourse")), O: rdf.NewIRI(cs[g.rng.Intn(len(cs))])},
		)
	}
	return request{query: -1, text: updateText("INSERT", adds), adds: adds}
}

// delete removes the client's next batch of corpus enrolments. Clients
// take alternate batches, so no triple is deleted twice.
func (g *requestGen) delete() request {
	stride := 2 * g.batch
	lo := (g.delPos*stride + g.client*g.batch) % max(len(g.in.enrolments)-g.batch, 1)
	g.delPos++
	dels := g.in.enrolments[lo:min(lo+g.batch, len(g.in.enrolments))]
	return request{query: -1, text: updateText("DELETE", dels), dels: dels}
}

func updateText(op string, ts []rdf.Triple) string {
	var b strings.Builder
	b.WriteString(op)
	b.WriteString(" DATA {\n")
	for _, t := range ts {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	b.WriteString("}")
	return b.String()
}
