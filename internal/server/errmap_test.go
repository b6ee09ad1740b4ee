package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// slowAskText is slowQueryText as an ASK: the FILTER rejects every
// embedding, so the search never finds its first solution.
const slowAskText = `ASK {
	?a <http://p/t> ?b . ?b <http://p/t> ?c . ?c <http://p/t> ?d .
	FILTER (?d = <http://v/nomatch>)
}`

// failureCounters is the /stats view of every execution-failure counter
// plus the admission counters an execution path moves.
func failureCounters(st StatsResponse) map[string]uint64 {
	return map[string]uint64{
		"queries":          st.Queries,
		"cache_misses":     st.CacheMisses,
		"timeouts":         st.Timeouts,
		"cancelled":        st.Cancelled,
		"cancelled_admin":  st.CancelledAdmin,
		"resource_limited": st.ResourceLimited,
		"parse_errors":     st.ParseErrors,
		"rejected":         st.Rejected,
	}
}

// TestExecErrorMapping pins how each execution path (explain=analyze,
// ASK, SELECT) maps each failure to an HTTP status, an error body and a
// /stats counter, and that every failure frees its admission slot and
// its governance entry. explain=analyze is absent from the visit-guard
// row: its resource meter is not attached to the engine run, so the
// guard never trips there.
func TestExecErrorMapping(t *testing.T) {
	slowData := slowSearchData(400, 40)
	type path struct {
		name   string
		query  string
		params []string
		misses uint64 // cache_misses delta: explain skips the result cache
	}
	explain := path{"explain", slowQueryText, []string{"explain", "analyze"}, 0}
	ask := path{"ask", slowAskText, nil, 1}
	sel := path{"select", slowQueryText, nil, 1}

	type failure struct {
		name    string
		cfg     Config
		params  []string
		malform bool // replace the query text with unparseable text
		admin   bool // cancel through the admin surface while in flight
		status  int
		body    string
		counter string
	}
	timeout := failure{name: "timeout", params: []string{"timeout", "-1ms"},
		status: http.StatusServiceUnavailable, body: "timed out", counter: "timeouts"}
	visits := failure{name: "visits", cfg: Config{MaxQueryVisits: 10_000},
		status: http.StatusUnprocessableEntity, body: "resource limit", counter: "resource_limited"}
	admin := failure{name: "admin_cancel", cfg: Config{AdminToken: "sesame"}, admin: true,
		status: http.StatusInternalServerError, body: "cancelled by administrator", counter: "cancelled_admin"}
	malformed := failure{name: "malformed", malform: true,
		status: http.StatusBadRequest, body: "invalid query", counter: "parse_errors"}

	cases := []struct {
		p path
		f failure
	}{
		{explain, timeout}, {explain, admin}, {explain, malformed},
		{ask, timeout}, {ask, visits}, {ask, admin},
		{sel, timeout}, {sel, visits}, {sel, admin}, {sel, malformed},
	}
	for _, c := range cases {
		t.Run(c.p.name+"/"+c.f.name, func(t *testing.T) {
			s, ts := newTestServer(t, slowData, c.f.cfg)
			query := c.p.query
			if c.f.malform {
				query = "SELEKT nonsense"
			}
			params := append([]string{"timeout", "30s"}, c.p.params...)
			params = append(params, c.f.params...)
			before := failureCounters(s.Stats())

			var status int
			var body string
			if c.f.admin {
				status, body = runAndAdminCancel(t, s, ts.URL, queryURL(ts.URL, query, params...))
			} else {
				resp, b := get(t, queryURL(ts.URL, query, params...), nil)
				status, body = resp.StatusCode, b
			}
			if status != c.f.status || !strings.Contains(body, c.f.body) {
				t.Errorf("got %d %q, want %d containing %q", status, body, c.f.status, c.f.body)
			}

			waitIdle(t, s)
			want := map[string]uint64{"queries": 1, "cache_misses": c.p.misses, c.f.counter: 1}
			for name, after := range failureCounters(s.Stats()) {
				if d := after - before[name]; d != want[name] {
					t.Errorf("%s delta = %d, want %d", name, d, want[name])
				}
			}
		})
	}
}

// runAndAdminCancel issues a long-running request, cancels it through
// POST /admin/queries/{id}/cancel once it is registered, and returns the
// client's response.
func runAndAdminCancel(t *testing.T, s *Server, base, rawURL string) (int, string) {
	t.Helper()
	type result struct {
		status int
		body   string
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(rawURL)
		if err != nil {
			done <- result{}
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- result{resp.StatusCode, string(b)}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if qs := s.inflight.Snapshot(); len(qs) == 1 {
			if resp, body := postCancel(t, base, qs[0].ID, "sesame"); resp.StatusCode != http.StatusOK {
				t.Fatalf("cancel status %d: %s", resp.StatusCode, body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never registered in the in-flight table")
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case r := <-done:
		return r.status, r.body
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled request did not answer")
		return 0, ""
	}
}

// waitIdle waits until no admission slot is held and the governance
// table is empty: a failed request must release both.
func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for s.Stats().InFlight != 0 || s.inflight.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("still held: in_flight=%d registry=%d", s.Stats().InFlight, s.inflight.Len())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
