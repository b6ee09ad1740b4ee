package engine

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/delta"
	"repro/internal/dict"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/workload"
)

// TestProbeAnswersStayUnmodified guards the Reader contract that probe
// answers must not be modified. N and A answer single-key probes with
// sub-slices of their stored arrays, so a caller that wrote into an
// answer, or appended onto one, would corrupt the index for every later
// query. The test runs a workload through every execution path — serial
// count, streaming, parallel count — under both planners, over the frozen
// graph and over a delta view with a non-empty overlay, and then requires
// N and A to equal a fresh build of the same graph.
func TestProbeAnswersStayUnmodified(t *testing.T) {
	g, ix, triples := skewedFixture(t, 11)

	// The overlay deletes some base edges and adds edges between existing
	// entities, so view probes take both the base-only and the merge path.
	var adds, dels []rdf.Triple
	for i, tr := range triples {
		if tr.O.IsLiteral() {
			continue
		}
		switch {
		case i%17 == 0 && len(dels) < 150:
			dels = append(dels, tr)
		case i%13 == 0 && len(adds) < 150:
			adds = append(adds, rdf.Triple{S: tr.O, P: tr.P, O: tr.S})
		}
	}
	view, err := delta.NewView(g, ix).Apply(adds, dels)
	if err != nil {
		t.Fatal(err)
	}
	if view.Empty() {
		t.Fatal("overlay is empty")
	}

	readers := []struct {
		name string
		r    index.Reader
		d    dict.Resolver
	}{
		{"graph", index.NewReader(g, ix), &g.Dicts},
		{"view", view, view},
	}
	gen := workload.NewGenerator(triples, 3, workload.DefaultConfig())
	ran := 0
	for _, kind := range []workload.Kind{workload.Star, workload.Complex} {
		for _, size := range []int{3, 5, 8} {
			for _, q := range gen.Workload(kind, size, 6) {
				for _, rd := range readers {
					qg, err := query.Build(q, rd.d)
					if err != nil {
						continue // a constant the overlay deleted
					}
					for _, pl := range []plan.Planner{plan.CostBased(), plan.Heuristic()} {
						p := pl.Plan(qg, rd.r)
						opts := Options{Deadline: time.Now().Add(2 * time.Second)}
						if _, err := Count(rd.r, p, opts); err != nil {
							continue // deadline on a pathological query
						}
						if err := Stream(rd.r, p, opts, func([]dict.VertexID) bool { return true }); err != nil {
							continue
						}
						if _, err := CountParallel(rd.r, p, opts, 2); err != nil {
							continue
						}
						ran++
					}
				}
			}
		}
	}
	if ran < 40 {
		t.Fatalf("only %d query runs completed", ran)
	}
	fresh := index.Build(g)
	if !reflect.DeepEqual(ix.N, fresh.N) {
		t.Error("neighbourhood index N differs from a fresh build after querying")
	}
	if !reflect.DeepEqual(ix.A, fresh.A) {
		t.Error("attribute index A differs from a fresh build after querying")
	}
}
