package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/multigraph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/results"
	"repro/internal/sparql"
)

// layerSetup rebuilds the offline structures through the layers' public
// functions, as amber.Open does, with spans around each, then measures
// each structure's live heap in a second, untimed build. It reports the
// set-up layer metrics and returns the second build's read view.
func layerSetup(r *run, tr *tracer, nt []byte) (*delta.View, error) {
	root := tr.start("setup", 0, 0)
	id := tr.start("rdf.Decoder.DecodeAll", root, 0)
	triples, err := rdf.NewDecoder(bytes.NewReader(nt)).DecodeAll()
	parse := tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.start("multigraph.FromTriples", root, 0)
	g, err := multigraph.FromTriples(triples)
	build := tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.start("index.Build", root, 0)
	ix := index.Build(g)
	indexDur := tr.end(id)
	id = tr.start("delta.NewView", root, 0)
	delta.NewView(g, ix)
	tr.end(id)
	tr.end(root)
	r.set("rdf.parse_s", parse.Seconds())
	r.set("multigraph.build_s", build.Seconds())
	r.set("index.build_s", indexDur.Seconds())

	g, ix = nil, nil
	h0 := liveHeap()
	if g, err = multigraph.FromTriples(triples); err != nil {
		return nil, err
	}
	h1 := liveHeap()
	ix = index.Build(g)
	h2 := liveHeap()
	// The triples stay live throughout, so neither delta is offset by
	// their being freed; term strings the graph shares with them count
	// toward neither structure.
	runtime.KeepAlive(triples)
	r.set("multigraph.heap_mb", heapDelta(h0, h1))
	r.set("index.heap_mb", heapDelta(h1, h2))
	return delta.NewView(g, ix), nil
}

// layerResult is what one query's layer-path execution observed.
type layerResult struct {
	n          uint64 // solutions counted, or rows produced
	stats      engine.Stats
	meter      obs.MeterView
	qErrLogSum float64 // see qErrorLogs
	qErrLevels int
	search     time.Duration
	decode     time.Duration
	serialize  time.Duration
	outBytes   int64
	planDur    time.Duration
	parseDur   time.Duration
	buildDur   time.Duration
}

// queryMode selects how layerQuery executes the plan.
type queryMode int

const (
	// countMode runs engine.Count, as Prepared.Count does.
	countMode queryMode = iota
	// rowsMode runs engine.Stream, decodes every row with
	// core.BindingTerm and serializes it as SPARQL JSON, as the server does.
	rowsMode
)

// layerQuery answers one query through the layers' public functions in
// the program's nesting — sparql.ParseWith → query.Build →
// plan.Planner.Plan → engine.Count or engine.Stream → core.BindingTerm →
// results writer — with spans parented to root. opts may carry a
// deadline or a context; Stats and Meter are filled in here.
func layerQuery(tr *tracer, root int, req int64, rd index.Reader, res dict.Resolver,
	planner plan.Planner, text string, mode queryMode, opts engine.Options) (layerResult, error) {
	var out layerResult
	id := tr.start("sparql.ParseWith", root, req)
	t0 := time.Now()
	q, err := sparql.ParseWith(text, nil)
	out.parseDur = time.Since(t0)
	tr.end(id)
	if err != nil {
		return out, err
	}
	if !core.IsPlain(q) {
		return out, fmt.Errorf("layer path supports plain BGP queries only")
	}
	id = tr.start("query.Build", root, req)
	t0 = time.Now()
	qg, err := query.Build(q, res)
	out.buildDur = time.Since(t0)
	tr.end(id)
	if err != nil {
		return out, err
	}
	id = tr.start("plan.Planner.Plan", root, req)
	t0 = time.Now()
	pl := planner.Plan(qg, rd)
	out.planDur = time.Since(t0)
	tr.end(id)

	meter := obs.NewResourceMeter()
	opts.Stats, opts.Meter, opts.Limit = &out.stats, meter, q.Limit
	engID := 0
	if mode == countMode {
		engID = tr.start("engine.Count", root, req)
		t0 = time.Now()
		out.n, err = engine.Count(rd, pl, opts)
		out.search = time.Since(t0)
		tr.end(engID)
	} else {
		var asgs [][]dict.VertexID
		engID = tr.start("engine.Stream", root, req)
		t0 = time.Now()
		err = engine.Stream(rd, pl, opts, func(asg []dict.VertexID) bool {
			asgs = append(asgs, append([]dict.VertexID(nil), asg...))
			return true
		})
		out.search = time.Since(t0)
		tr.end(engID)
		if err == nil {
			out.n = uint64(len(asgs))
			out.decode, out.serialize, out.outBytes, err = decodeAndSerialize(tr, root, req, res, q.Projection(), qg, asgs)
		}
	}
	out.meter = meter.View()
	tr.attr(engID, "recursions", float64(out.stats.Recursions))
	tr.attr(engID, "init_candidates", float64(out.stats.InitCandidates))
	tr.attr(engID, "sat_probes", float64(out.stats.SatProbes))
	tr.attr(engID, "overlay_probes", float64(out.meter.OverlayProbes))
	tr.attr(engID, "embeddings", float64(out.stats.Embeddings))
	out.qErrLogSum, out.qErrLevels = qErrorLogs(pl, out.stats.Levels)
	return out, err
}

// decodeAndSerialize turns engine rows into typed terms with
// core.BindingTerm, then writes them as a SPARQL JSON document.
func decodeAndSerialize(tr *tracer, root int, req int64, res dict.Resolver, proj []string,
	qg *query.Graph, asgs [][]dict.VertexID) (decode, serialize time.Duration, n int64, err error) {
	id := tr.start("core.BindingTerm", root, req)
	t0 := time.Now()
	rows := make([]map[string]rdf.Term, len(asgs))
	for i, asg := range asgs {
		row := make(map[string]rdf.Term, len(proj))
		for _, name := range proj {
			if u, ok := qg.VarIndex[name]; ok {
				row[name] = core.BindingTerm(res, asg[u])
			}
		}
		rows[i] = row
	}
	decode = time.Since(t0)
	tr.end(id)

	id = tr.start("results.Writer", root, req)
	t0 = time.Now()
	cw := &countWriter{}
	f, _ := results.Lookup("json") // built in, always found
	err = results.WriteAll(f, cw, proj, rows)
	serialize = time.Since(t0)
	tr.end(id)
	return decode, serialize, cw.n, err
}

// buildPlan translates and plans a parsed query against view.
func buildPlan(q *sparql.Query, view *delta.View, planner plan.Planner) (*plan.Plan, error) {
	qg, err := query.Build(q, view)
	if err != nil {
		return nil, err
	}
	return planner.Plan(qg, view), nil
}

// traceFile is where a traced run dumps its spans.
func traceFile(r *run) string {
	return filepath.Join(r.workdir, fmt.Sprintf("spans-%s-%d.jsonl", r.workload, r.seed))
}

// qErrorLogs sums, over the matching levels of one query, the absolute
// log of (estimate+1) / (mean actual frontier+1), the planner-accuracy
// ratio the server's explain=analyze reports, and counts the levels. The
// geometric-mean q-error exp(sum/n) is 1 for a planner whose estimates
// are exact and grows with over- and underestimates alike.
func qErrorLogs(pl *plan.Plan, levels []engine.LevelStats) (sum float64, n int) {
	for _, l := range levels {
		if l.Visits == 0 {
			continue
		}
		ests := pl.Components[l.Component].Estimates
		if l.Pos >= len(ests) || math.IsInf(ests[l.Pos], 0) || math.IsNaN(ests[l.Pos]) {
			continue
		}
		sum += math.Abs(math.Log((ests[l.Pos] + 1) / (float64(l.Candidates)/float64(l.Visits) + 1)))
		n++
	}
	return sum, n
}

// countWriter discards what it is given and counts the bytes.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// layerTotals aggregates layer-path results into per-query metrics.
type layerTotals struct {
	queries                         int
	recursions, initCands, satProbe float64
	overlayProbes                   float64
	qErrLogSum                      float64
	qErrLevels                      int
	rows                            float64
	decode, serialize               time.Duration
	outBytes                        float64
	parse, build, plan, search      []float64 // per query, µs / ms
}

func (t *layerTotals) add(lr layerResult) {
	t.queries++
	t.recursions += float64(lr.stats.Recursions)
	t.initCands += float64(lr.stats.InitCandidates)
	t.satProbe += float64(lr.stats.SatProbes)
	t.overlayProbes += float64(lr.meter.OverlayProbes)
	t.qErrLogSum += lr.qErrLogSum
	t.qErrLevels += lr.qErrLevels
	t.rows += float64(lr.n)
	t.decode += lr.decode
	t.serialize += lr.serialize
	t.outBytes += float64(lr.outBytes)
	t.parse = append(t.parse, float64(lr.parseDur)/1e3)
	t.build = append(t.build, float64(lr.buildDur)/1e3)
	t.plan = append(t.plan, float64(lr.planDur)/1e3)
	t.search = append(t.search, ms(lr.search))
}

// report sets the query-layer metrics; rows enables the per-row ones.
func (t *layerTotals) report(r *run, rows bool) {
	if t.queries == 0 {
		return
	}
	q := float64(t.queries)
	r.set("sparql.parse_us", median(t.parse))
	r.set("query.build_us", median(t.build))
	r.set("plan.plan_us", median(t.plan))
	if t.qErrLevels > 0 {
		r.set("plan.est_actual_ratio", math.Exp(t.qErrLogSum/float64(t.qErrLevels)))
	}
	r.set("engine.search_p50_ms", quantile(t.search, 0.5))
	r.set("engine.search_p99_ms", quantile(t.search, 0.99))
	r.set("engine.recursions_per_query", t.recursions/q)
	r.set("engine.init_candidates_per_query", t.initCands/q)
	r.set("engine.sat_probes_per_query", t.satProbe/q)
	r.set("engine.overlay_probes_per_query", t.overlayProbes/q)
	if rows && t.rows > 0 {
		r.set("core.materialize_us_per_row", float64(t.decode)/1e3/t.rows)
		r.set("results.serialize_us_per_row", float64(t.serialize)/1e3/t.rows)
		r.set("results.bytes_per_row", t.outBytes/t.rows)
	}
}

// reportTrace sets the trace-accounting metric, logs where the traced
// time went — each span name's self time as a share of all root time,
// the root names' shares being the unattributed part — and dumps the
// spans.
func reportTrace(r *run, tr *tracer) error {
	s := tr.summarize()
	if s.rootTotal > 0 {
		r.set("trace.unattributed_frac", float64(s.rootSelf)/float64(s.rootTotal))
		names := make([]string, 0, len(s.self))
		for n := range s.self {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return s.self[names[i]] > s.self[names[j]] })
		fmt.Fprintf(logw, "traced time %.3fs, self time by span:\n", s.rootTotal.Seconds())
		for _, n := range names {
			fmt.Fprintf(logw, "  %-28s %8d spans %10.4fs %6.2f%%\n", n, s.count[n], s.self[n].Seconds(),
				100*float64(s.self[n])/float64(s.rootTotal))
		}
	}
	path := traceFile(r)
	fmt.Fprintf(logw, "spans written to %s\n", path)
	return tr.write(path)
}
