package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/triplestore"
)

func TestMain(m *testing.M) {
	flag.Parse()
	if !testing.Verbose() {
		logw = io.Discard
	}
	os.Exit(m.Run())
}

// tinySize runs every workload in seconds.
var tinySize = sizing{dbpediaScale: 1, perGroup: 4, replay: 24, compare: 6, universities: 1, compactLUBM: true,
	perTemplate: 8, setups: 2, batch: 4, warmupRead: 20, warmupMixed: 8}

// benchmarkFile is the subset of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	check := func(kind string, defs []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(defs))
			return
		}
		for i := range defs {
			if defs[i].name != got[i].Name || defs[i].unit != got[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
}

// runTiny runs one workload at tiny scale and checks it verified.
func runTiny(t *testing.T, workload string, trace int) result {
	t.Helper()
	res, err := execute(workload, 3, 0.3, trace, tinySize, t.TempDir())
	if err != nil {
		t.Fatalf("%s trace=%d: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%d: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, trace := range []int{0, 1} {
			res := runTiny(t, w.Name, trace)
			defs := bf.EndToEnd
			if trace == 1 {
				defs = bf.PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", w.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%d: metric %s unit %q, want %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				case trace == 0 && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, m.Value)
				}
			}
		}
	}
}

// deterministicMetrics are the effort counters of a traced run that must
// repeat exactly for a given seed.
var deterministicMetrics = []string{
	"engine.recursions_per_query",
	"engine.init_candidates_per_query",
	"engine.sat_probes_per_query",
	"engine.overlay_probes_per_query",
	"plan.est_actual_ratio",
	"plan.heuristic_recursion_ratio",
	"results.bytes_per_row",
	"amber.allocs_per_row",
	"amber.bytes_per_row",
	"server.cache_hit_ratio",
	"wal.fsyncs_per_write",
	"wal.bytes_per_user_byte",
	"delta.overlay_copied_bytes_per_write",
}

func TestTracedCountersRepeat(t *testing.T) {
	for w := range workloads {
		a, b := runTiny(t, w, 1), runTiny(t, w, 1)
		for _, name := range deterministicMetrics {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s differs between two traced runs: %v vs %v", w, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}

// TestReferenceAgreesWithTripleStore checks the benchmark's reference
// counter against the PermStore-style triple store on the tiny
// paper-count list, wherever the triple store finishes in time.
func TestReferenceAgreesWithTripleStore(t *testing.T) {
	triples, qs, err := paperQueries(tinySize)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceCounts(triples, qs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := triplestore.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for i, q := range qs {
		n, err := st.Count(st.Compile(q), triplestore.Options{Deadline: time.Now().Add(2 * time.Second)})
		if errors.Is(err, triplestore.ErrDeadlineExceeded) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		compared++
		if int64(n) != ref[i] {
			t.Errorf("query %d: reference %d, triple store %d", i, ref[i], n)
		}
	}
	t.Logf("%d of %d queries compared", compared, len(qs))
	if compared < len(qs)/2 {
		t.Errorf("triple store finished only %d of %d queries", compared, len(qs))
	}
}

func TestVerifierFlagsCorruptedAnswers(t *testing.T) {
	r := &run{seed: 5, size: tinySize, metrics: map[string]float64{}}
	pin, err := makePaperInputs(r)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(pin.ref, func(n int64) bool { return n >= 0 })
	if i < 0 {
		t.Fatal("no reference count in the tiny query list")
	}
	n := uint64(pin.ref[i])
	if err := checkCount(pin, i, n, nil); err != nil {
		t.Fatalf("correct count rejected: %v", err)
	}
	pin.ref[i]++ // corrupt the expected answer
	if checkCount(pin, i, n, nil) == nil {
		t.Error("paper-count verifier accepted a count that disagrees with the reference")
	}

	lin, err := makeLUBMInputs(r)
	if err != nil {
		t.Fatal(err)
	}
	e, err := openEndpoint(r, lin, false)
	if err != nil {
		t.Fatal(err)
	}
	e.listen(nil)
	defer e.close()
	q := request{query: 0, text: lin.pool.texts[0]}
	status, body, _, err := e.do(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newClient(lin, 5, 0, false, 4).checkRead(0, status, body); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	lin.pool.rows[0]++ // corrupt the expected row count
	if _, err := newClient(lin, 5, 0, false, 4).checkRead(0, status, body); err == nil {
		t.Error("serve verifier accepted a response with the wrong row count")
	}
	lin.pool.rows[0]--
	lin.pool.vars[0] = []string{"wrong"} // corrupt the expected head
	if _, err := newClient(lin, 5, 0, false, 4).checkRead(0, status, body); err == nil {
		t.Error("serve verifier accepted a response with the wrong head vars")
	}
}

func TestSelfTimesSumToRoot(t *testing.T) {
	ms := time.Millisecond
	// A root with two sequential children, one of which has a child, plus
	// a second, childless root.
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 2, Name: "a1", Start: 2 * ms, End: 3 * ms},
		{ID: 4, Parent: 1, Name: "b", Start: 5 * ms, End: 9 * ms},
		{ID: 5, Name: "root2", Start: 11 * ms, End: 12 * ms},
	}
	checkTree(t, spans)
	self := selfTimes(spans)
	if want := []time.Duration{3 * ms, 2 * ms, 1 * ms, 4 * ms, 1 * ms}; !slices.Equal(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}

	// A real traced set-up and query replay.
	r := &run{seed: 2, size: tinySize, metrics: map[string]float64{}}
	in, err := makePaperInputs(r)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	view, err := layerSetup(r, tr, in.nt)
	if err != nil {
		t.Fatal(err)
	}
	countLayers(r, tr, in, view, len(in.texts))
	if r.failed != 0 {
		t.Fatalf("traced queries failed: %v", r.problems)
	}
	checkTree(t, tr.spans)
}

// checkTree asserts every self time is ≥ 0 and each root's tree of self
// times sums to the root's duration.
func checkTree(t *testing.T, spans []span) {
	t.Helper()
	self := selfTimes(spans)
	rootOf := func(i int) int {
		for spans[i].Parent != 0 {
			i = spans[i].Parent - 1
		}
		return i
	}
	sum := map[int]time.Duration{}
	for i := range spans {
		if self[i] < 0 {
			t.Errorf("span %s: negative self time %v", spans[i].Name, self[i])
		}
		sum[rootOf(i)] += self[i]
	}
	for root, s := range sum {
		if d := spans[root].dur(); s != d {
			t.Errorf("root %s: self times sum to %v, duration %v", spans[root].Name, s, d)
		}
	}
}
