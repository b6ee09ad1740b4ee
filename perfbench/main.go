// Command perfbench is AMbER's benchmark. One run measures one workload:
//
//	bash perfbench/run.sh --workload serve-read --seed 7 --seconds 10 --trace 0
//
// The workloads (see BENCHMARK.json for why each was chosen):
//
//   - paper-count: the paper's §7.2 star and complex queries of 10, 20
//     and 30 patterns over the DBpedia-like corpus at scale 4, each
//     answered through amber.DB.Prepare → Prepared.Count by 2
//     closed-loop clients.
//   - serve-read: read-only SPARQL/JSON over a loopback HTTP server
//     (server.New) on LUBM at 5 universities, 2 keep-alive closed-loop
//     clients drawing templated queries with Zipf skew from a pool several
//     times the 256-entry result cache.
//   - serve-mixed: serve-read's server on a durable database
//     (amber.OpenDurable, fsync=always); every client sends one
//     INSERT DATA or DELETE DATA enrolment batch after every three reads.
//
// The corpora, paper-count's query list and the serve query pool are
// fixed, as the paper's datasets are; --seed orders the list and draws
// the request sequences. The program under test receives only N-Triples
// bytes and query/update text. Every run checks its answers off the
// clock.
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
// reports the per-layer metrics: it repeats the closed-loop phase
// untraced, then replays a fixed request sequence on one client with and
// without spans recorded around the layers' public functions, and writes
// the spans to --workdir. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The tables below
// must match BENCHMARK.json (the package tests check it).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"queries_per_s", "1/s"},
}

var perLayer = []metricDef{
	// Closed-loop figures that exist on some workloads only, from the
	// traced run's untraced closed-loop phase.
	{"rows_per_s", "1/s"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"writes_per_s", "1/s"},
	{"error_rate", "ratio"},
	// Set-up layers.
	{"rdf.parse_s", "s"},
	{"multigraph.build_s", "s"},
	{"index.build_s", "s"},
	{"multigraph.heap_mb", "MB"},
	{"index.heap_mb", "MB"},
	// Query layers.
	{"sparql.parse_us", "us"},
	{"query.build_us", "us"},
	{"plan.plan_us", "us"},
	{"plan.est_actual_ratio", "ratio"},          // geometric-mean q-error: 1 when estimates are exact
	{"plan.heuristic_recursion_ratio", "ratio"}, // a lower bound where the heuristic run hits its cap
	{"engine.search_p50_ms", "ms"},
	{"engine.search_p99_ms", "ms"},
	{"engine.recursions_per_query", "count"},
	{"engine.init_candidates_per_query", "count"},
	{"engine.sat_probes_per_query", "count"},
	{"engine.overlay_probes_per_query", "count"},
	// Row materialization and serialization.
	{"core.materialize_us_per_row", "us"},
	{"amber.allocs_per_row", "count"},
	{"amber.bytes_per_row", "B"},
	{"results.serialize_us_per_row", "us"},
	{"results.bytes_per_row", "B"},
	// HTTP server.
	{"server.self_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.rejected", "count"},
	// Write path.
	{"sparql.update_parse_us", "us"},
	{"core.mutate_ms", "ms"},
	{"wal.fsyncs_per_write", "count"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"delta.overlay_copied_bytes_per_write", "B"},
	{"core.mean_group_size", "count"},
	{"core.compactions", "count"},
	{"core.compaction_s", "s"},
	{"delta.overlay_entries_peak", "count"},
	// Paper baselines on the comparison subset, same timeout for all.
	{"amber.p50_ms", "ms"},
	{"amber.unanswered_frac", "ratio"},
	{"triplestore.p50_ms", "ms"},
	{"triplestore.unanswered_frac", "ratio"},
	{"baseline.p50_ms", "ms"},
	{"baseline.unanswered_frac", "ratio"},
	// Tracing itself.
	{"trace.untraced_queries_per_s", "1/s"},
	{"trace.traced_queries_per_s", "1/s"},
	{"trace.unattributed_frac", "ratio"},
}

// logw receives the human-readable run log; standard output carries
// only the result line.
var logw io.Writer = os.Stderr

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"paper-count": runPaperCount,
	"serve-read":  runServeRead,
	"serve-mixed": runServeMixed,
}

// sizing scales a workload's inputs. The benchmark runs at fullSize; the
// package tests pass a smaller sizing to execute.
type sizing struct {
	dbpediaScale int // DBpedia-like corpus multiplier
	perGroup     int // paper-count queries per (shape, size) group
	replay       int // requests in the single-client replays of a traced run
	compare      int // paper-count queries run on the baselines
	universities int // LUBM scale
	compactLUBM  bool
	perTemplate  int // serve pool instances per large template
	setups       int // set-ups per run; setup_s and heap_mb are medians
	batch        int // triples per serve-mixed write batch
	warmupRead   int // requests per client before serve-read measures
	warmupMixed  int // requests per client before serve-mixed measures
}

var fullSize = sizing{dbpediaScale: 4, perGroup: 100, replay: 1000, compare: 60, universities: 5,
	perTemplate: 600, setups: 9, batch: 64, warmupRead: 3000, warmupMixed: 100}

// run is one benchmark invocation: its settings and what it reports.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	workdir  string
	size     sizing

	metrics map[string]float64
	tally   // every operation the run checked
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// tally counts checked operations and failures. Each concurrent client
// keeps its own, added to the run's when the client is done.
type tally struct {
	attempted, failed int64
	problems          []string // the first few failures, for the log
}

// fail counts one failed operation.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	t.note(fmt.Sprintf(format, args...))
}

func (t *tally) note(problem string) {
	if len(t.problems) < 10 {
		t.problems = append(t.problems, problem)
	}
}

// add folds another tally into t.
func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, p := range o.problems {
		t.note(p)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the reported metric set. A per-layer metric whose
// layer does not run on this workload reads 0 and is listed as n/a.
func (r *run) result() (result, error) {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	var na []string
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			if !r.traced {
				return res, fmt.Errorf("end-to-end metric %s was not measured", d.name)
			}
			na = append(na, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(na) > 0 {
		fmt.Fprintf(logw, "n/a on %s (reported as 0): %v\n", r.workload, na)
	}
	res.Correct = r.failed == 0 && r.attempted > 0
	return res, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: paper-count, serve-read or serve-mixed")
		seed     = flag.Int64("seed", 1, "seed drawing the queries and request sequences")
		seconds  = flag.Float64("seconds", 10, "length of the measured closed-loop phase, in seconds")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "run"), "directory for write-ahead logs and span dumps")
	)
	flag.Parse()
	res, err := execute(*workload, *seed, *seconds, *trace, fullSize, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// execute validates the arguments, runs one workload and returns its
// result, after logging every metric with its unit to standard error.
func execute(workload string, seed int64, seconds float64, trace int, size sizing, workdir string) (result, error) {
	fn, ok := workloads[workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return result{}, fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return result{}, err
	}
	r := &run{
		workload: workload,
		seed:     seed,
		seconds:  time.Duration(seconds * float64(time.Second)),
		traced:   trace == 1,
		workdir:  workdir,
		size:     size,
		metrics:  map[string]float64{},
	}
	if err := fn(r); err != nil {
		return result{}, err
	}
	res, err := r.result()
	if err != nil {
		return res, err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(logw, "%-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	verdict := "PASS"
	if !res.Correct {
		verdict = "FAIL"
	}
	fmt.Fprintf(logw, "verification: %s (%d attempted, %d failed)\n", verdict, res.Attempted, res.Failed)
	for _, p := range r.problems {
		fmt.Fprintln(logw, "  ", p)
	}
	return res, nil
}
