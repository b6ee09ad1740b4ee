package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	amber "repro"
	"repro/internal/baseline"
	"repro/internal/datagen"
	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/triplestore"
	"repro/internal/workload"
)

const (
	// corpusSeed fixes the generated corpora, as the paper's datasets are
	// fixed, paper-count's query list and the serve workloads' query pool;
	// the run's --seed orders the list and draws the request sequences. A
	// list drawn per seed would make queries_per_s follow the few heavy
	// queries each seed happens to draw (a 1500-query list varied by ±15%
	// across seeds) rather than the program.
	corpusSeed = 1
	// countTimeout bounds each paper-count query. It is a safety net, far
	// above the slowest query seen on the corpus, so no query times out.
	countTimeout = 10 * time.Second
	// compareTimeout bounds every engine in the baseline comparison, as
	// the paper's one timeout bounds all three systems in Figs 6–11.
	compareTimeout = 200 * time.Millisecond
	// heuristicVisitCap stops a heuristic-planner run that explodes; the
	// cap is a step count, so where it stops is deterministic.
	heuristicVisitCap = 50_000_000
)

// paperInputs are paper-count's generated inputs.
type paperInputs struct {
	nt      []byte
	queries []*sparql.Query
	texts   []string
	ref     []int64 // expected count, or -1 where the reference cannot count
}

// paperQueries generates the DBpedia-like corpus and the §7.2 query mix:
// star and complex queries of 10, 20 and 30 patterns, perGroup of each,
// in the generator's order.
func paperQueries(size sizing) ([]rdf.Triple, []*sparql.Query, error) {
	triples := datagen.DBpediaLike(size.dbpediaScale, corpusSeed)
	gen := workload.NewGenerator(triples, corpusSeed, workload.DefaultConfig())
	var qs []*sparql.Query
	for _, kind := range []workload.Kind{workload.Star, workload.Complex} {
		for _, n := range []int{10, 20, 30} {
			got := gen.Workload(kind, n, size.perGroup)
			if len(got) != size.perGroup {
				return nil, nil, fmt.Errorf("generator produced %d of %d %s/%d queries", len(got), size.perGroup, kind, n)
			}
			qs = append(qs, got...)
		}
	}
	return triples, qs, nil
}

// referenceCounts answers each query on the reference store (see
// refStore); -1 marks a count beyond int64 or an elimination too wide for
// the reference, checked for ≥1 only.
func referenceCounts(triples []rdf.Triple, qs []*sparql.Query) ([]int64, error) {
	st := newRefStore(triples)
	ref := make([]int64, len(qs))
	for i, q := range qs {
		n, err := st.count(q)
		switch {
		case errors.Is(err, errRefOverflow) || errors.Is(err, errRefTooWide):
			ref[i] = -1
		case err != nil:
			return nil, fmt.Errorf("reference, query %d: %w", i, err)
		default:
			ref[i] = n
		}
	}
	return ref, nil
}

// makePaperInputs builds paper-count's inputs: the corpus as N-Triples
// and the query list with its expected counts, shuffled by seed so every
// stretch of the list mixes all groups.
func makePaperInputs(r *run) (*paperInputs, error) {
	triples, qs, err := paperQueries(r.size)
	if err != nil {
		return nil, err
	}
	nt, err := encodeNT(triples)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ref, err := referenceCounts(triples, qs)
	if err != nil {
		return nil, err
	}
	refTime := time.Since(t0)
	in := &paperInputs{nt: nt, queries: qs, ref: ref}
	checked := 0
	for i, q := range qs {
		in.texts = append(in.texts, q.String())
		if ref[i] >= 0 {
			checked++
		}
	}
	rng := rand.New(rand.NewSource(r.seed))
	rng.Shuffle(len(qs), func(i, j int) {
		in.queries[i], in.queries[j] = in.queries[j], in.queries[i]
		in.texts[i], in.texts[j] = in.texts[j], in.texts[i]
		in.ref[i], in.ref[j] = in.ref[j], in.ref[i]
	})
	fmt.Fprintf(logw, "paper-count: %d of %d queries have a reference count (computed in %.1fs); the rest are checked for ≥1\n",
		checked, len(qs), refTime.Seconds())
	return in, nil
}

// checkCount verifies one paper-count answer: the queries are carved out
// of the data, so every count is at least 1, and it must equal the
// reference count wherever the reference finished.
func checkCount(in *paperInputs, i int, n uint64, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("query %d: %v", i, err)
	case n < 1:
		return fmt.Errorf("query %d: count 0 for a satisfiable query", i)
	case in.ref[i] >= 0 && uint64(in.ref[i]) != n:
		return fmt.Errorf("query %d: count %d, reference %d", i, n, in.ref[i])
	}
	return nil
}

func runPaperCount(r *run) error {
	in, err := makePaperInputs(r)
	if err != nil {
		return err
	}
	db, err := measureSetup(r, func() (*amber.DB, error) {
		return amber.Open(bytes.NewReader(in.nt))
	}, func(*amber.DB) error { return nil })
	if err != nil {
		return err
	}
	countOne := func(i int) (uint64, error) {
		p, err := db.Prepare(in.texts[i])
		if err != nil {
			return 0, err
		}
		return p.Count(&amber.QueryOptions{Timeout: countTimeout})
	}
	lat, rates := paperClosedLoop(r, in, countOne)
	setLatency(r, lat)
	r.set("queries_per_s", median(rates))
	fmt.Fprintf(logw, "paper-count: %d queries in %d passes over %d distinct; queries/s per pass: %.2f\n",
		len(lat), len(rates), len(in.texts), rates)
	if !r.traced {
		return nil
	}
	r.set("error_rate", float64(r.failed)/float64(max(r.attempted, 1)))
	return tracePaperCount(r, in, countOne)
}

// paperClosedLoop runs two closed-loop clients over the query list: each
// takes the next query as soon as its previous one returns. The phase
// ends at the first pass boundary after r.seconds, so every pass runs the
// whole list. It returns the latencies and each pass's throughput.
func paperClosedLoop(r *run, in *paperInputs, countOne func(int) (uint64, error)) ([]float64, []float64) {
	const clients = 2
	L := int64(len(in.texts))
	var next atomic.Int64
	var stop atomic.Bool
	lats := make([]latencies, clients)
	tallies := make([]tally, clients)
	// spans[c] holds, per query client c ran, its position in the run and
	// when it started and ended, to time each pass.
	type qspan struct {
		k          int64
		start, end time.Duration
	}
	spans := make([][]qspan, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() {
				k := next.Add(1) - 1
				if k%L == 0 && k > 0 && time.Since(start) >= r.seconds {
					stop.Store(true)
					return
				}
				i := int(k % L)
				t0 := time.Now()
				n, err := countOne(i)
				t1 := time.Now()
				lats[c].add(t1.Sub(t0))
				spans[c] = append(spans[c], qspan{k, t0.Sub(start), t1.Sub(start)})
				tallies[c].attempted++
				if err := checkCount(in, i, n, err); err != nil {
					tallies[c].fail("%v", err)
				}
			}
		}(c)
	}
	wg.Wait()
	for c := range tallies {
		r.add(&tallies[c])
	}
	// A pass runs from its first query's start to its last query's end.
	var passStart, passEnd []time.Duration
	for _, ss := range spans {
		for _, s := range ss {
			p := int(s.k / L)
			for len(passStart) <= p {
				passStart = append(passStart, time.Duration(math.MaxInt64))
				passEnd = append(passEnd, 0)
			}
			passStart[p] = min(passStart[p], s.start)
			passEnd[p] = max(passEnd[p], s.end)
		}
	}
	var rates []float64
	for p := range passStart {
		rates = append(rates, float64(L)/(passEnd[p]-passStart[p]).Seconds())
	}
	return merge(lats...), rates
}

// tracePaperCount is paper-count's traced part: set-up through the layer
// functions, the replay list answered untraced through amber and traced
// through the layers, the heuristic planner on the same list, and the
// paper's two baselines on the comparison subset.
func tracePaperCount(r *run, in *paperInputs, countOne func(int) (uint64, error)) error {
	tr := newTracer()
	view, err := layerSetup(r, tr, in.nt)
	if err != nil {
		return err
	}
	replay := min(r.size.replay, len(in.texts))

	start := time.Now()
	for i := 0; i < replay; i++ {
		n, err := countOne(i)
		r.attempted++
		if err := checkCount(in, i, n, err); err != nil {
			r.fail("untraced replay: %v", err)
		}
	}
	r.set("trace.untraced_queries_per_s", float64(replay)/time.Since(start).Seconds())

	start = time.Now()
	costRec := countLayers(r, tr, in, view, replay)
	r.set("trace.traced_queries_per_s", float64(replay)/time.Since(start).Seconds())

	var heur, cost float64
	capped := 0
	for i := 0; i < replay; i++ {
		ctx, cancel := context.WithCancelCause(context.Background())
		meter := obs.NewResourceMeter()
		meter.SetVisitLimit(heuristicVisitCap, cancel)
		var st engine.Stats
		pl, err := buildPlan(in.queries[i], view, plan.Heuristic())
		if err == nil {
			_, err = engine.Count(view, pl, engine.Options{Ctx: ctx, Stats: &st, Meter: meter})
		}
		cancel(nil)
		if meter.Limited() {
			capped++ // counted at its recursions when stopped: a lower bound
		} else if err != nil {
			return fmt.Errorf("heuristic planner, query %d: %w", i, err)
		}
		heur += float64(st.Recursions)
		cost += float64(costRec[i])
	}
	if cost > 0 {
		r.set("plan.heuristic_recursion_ratio", heur/cost)
	}
	fmt.Fprintf(logw, "heuristic planner: %d of %d queries stopped at the visit cap; their recursions up to the stop are counted\n", capped, replay)

	if err := compareBaselines(r, in, view); err != nil {
		return err
	}
	return reportTrace(r, tr)
}

// countLayers answers the first n queries of the list through the layers'
// public functions under spans, reporting the query-layer metrics. It
// returns each query's recursion count.
func countLayers(r *run, tr *tracer, in *paperInputs, view *delta.View, n int) []int {
	var tot layerTotals
	rec := make([]int, n)
	for i := 0; i < n; i++ {
		req := int64(i + 1)
		root := tr.start("query", 0, req)
		lr, err := layerQuery(tr, root, req, view, view, plan.CostBased(), in.texts[i], countMode,
			engine.Options{Deadline: time.Now().Add(countTimeout)})
		tr.end(root)
		r.attempted++
		if err := checkCount(in, i, lr.n, err); err != nil {
			r.fail("traced replay: %v", err)
			continue
		}
		tot.add(lr)
		rec[i] = lr.stats.Recursions
	}
	tot.report(r, false)
	return rec
}

// compareBaselines answers the first queries of the list on AMbER, the
// PermStore-style triple store and the GraphMatch-style matcher under
// one shared timeout, as Figs 6–7 do: the median time over answered
// queries and the unanswered share per engine. Where AMbER and a
// baseline both answer, their counts must agree.
func compareBaselines(r *run, in *paperInputs, view *delta.View) error {
	triples, err := decodeNT(in.nt)
	if err != nil {
		return err
	}
	st, err := triplestore.FromTriples(triples)
	if err != nil {
		return err
	}
	bg, err := baseline.FromTriples(triples)
	if err != nil {
		return err
	}
	n := min(r.size.compare, len(in.queries))
	timeout := compareTimeout
	type engineRun func(q *sparql.Query, deadline time.Time) (uint64, error)
	engines := []struct {
		name string
		run  engineRun
	}{
		{"amber", func(q *sparql.Query, d time.Time) (uint64, error) {
			pl, err := buildPlan(q, view, plan.CostBased())
			if err != nil {
				return 0, err
			}
			return engine.Count(view, pl, engine.Options{Deadline: d})
		}},
		{"triplestore", func(q *sparql.Query, d time.Time) (uint64, error) {
			return st.Count(st.Compile(q), triplestore.Options{Deadline: d})
		}},
		{"baseline", func(q *sparql.Query, d time.Time) (uint64, error) {
			return bg.Count(bg.Compile(q), baseline.Options{Deadline: d})
		}},
	}
	counts := make([][]int64, len(engines))
	for e, eng := range engines {
		var answered []float64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			c, err := eng.run(in.queries[i], t0.Add(timeout))
			d := time.Since(t0)
			switch {
			case err == nil:
				answered = append(answered, ms(d))
				counts[e] = append(counts[e], int64(c))
			case errors.Is(err, engine.ErrDeadlineExceeded) || errors.Is(err, triplestore.ErrDeadlineExceeded) ||
				errors.Is(err, baseline.ErrDeadlineExceeded):
				counts[e] = append(counts[e], -1)
			default:
				return fmt.Errorf("%s, query %d: %w", eng.name, i, err)
			}
		}
		r.set(eng.name+".p50_ms", median(answered))
		r.set(eng.name+".unanswered_frac", float64(n-len(answered))/float64(n))
	}
	for i := 0; i < n; i++ {
		for e := 1; e < len(engines); e++ {
			r.attempted++
			if a, b := counts[0][i], counts[e][i]; a >= 0 && b >= 0 && a != b {
				r.fail("comparison query %d: amber %d, %s %d", i, a, engines[e].name, b)
			}
		}
	}
	return nil
}
