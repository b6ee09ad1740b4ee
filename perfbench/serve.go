package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	amber "repro"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/server"
	"repro/internal/sparql"
	"repro/internal/wal"
)

// fsyncPolicy is serve-mixed's WAL policy, the same on both sides of
// every comparison: no acknowledged write may be lost.
const fsyncPolicy = "always"

// serveClients is the number of closed-loop clients, one per CPU of the
// machine the benchmark was sized on.
const serveClients = 2

// measureSegments is how many segments the measured phase is cut into.
const measureSegments = 5

// endpoint is a served database: the SPARQL server on a loopback HTTP
// listener, plus what is needed to tear it down.
type endpoint struct {
	db     *amber.DB
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	dir    string // durable directory (serve-mixed), removed on close
}

// openDB opens the database a serve workload runs on: in memory for
// serve-read, durable in a fresh directory under workdir for serve-mixed.
func openDB(r *run, in *lubmInputs, mixed bool) (*amber.DB, string, error) {
	if !mixed {
		db, err := amber.Open(bytes.NewReader(in.nt))
		return db, "", err
	}
	dir, err := os.MkdirTemp(r.workdir, "durable-")
	if err != nil {
		return nil, "", err
	}
	db, err := openDurable(dir, in.nt)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return db, dir, nil
}

// openDurable opens the durable database in dir, bootstrapped from the
// corpus when dir holds no checkpoint.
func openDurable(dir string, nt []byte) (*amber.DB, error) {
	return amber.OpenDurable(dir, &amber.DurabilityOptions{
		Fsync:     fsyncPolicy,
		Bootstrap: func() (*amber.DB, error) { return amber.Open(bytes.NewReader(nt)) },
	})
}

// openEndpoint opens a database and a server for it with the default
// configuration; listen puts the server on the network.
func openEndpoint(r *run, in *lubmInputs, mixed bool) (*endpoint, error) {
	db, dir, err := openDB(r, in, mixed)
	if err != nil {
		return nil, err
	}
	return &endpoint{db: db, dir: dir, srv: server.New(db, server.Config{})}, nil
}

// listen starts the loopback listener and a client keeping at most one
// connection per closed-loop client alive. wrap, when set, wraps the
// server's handler (the traced replay records a span around ServeHTTP).
func (e *endpoint) listen(wrap func(http.Handler) http.Handler) {
	var h http.Handler = e.srv
	if wrap != nil {
		h = wrap(h)
	}
	e.ts = httptest.NewServer(h)
	e.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients,
		MaxConnsPerHost:     serveClients,
		DisableCompression:  true,
	}}
}

// close stops the listener, if listening, closes the database and
// removes its files.
func (e *endpoint) close() error {
	if e.ts != nil {
		e.client.CloseIdleConnections()
		e.ts.Close()
	}
	err := e.db.Close()
	if e.dir != "" {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// getStats reads the server's /stats document.
func (e *endpoint) getStats() (server.StatsResponse, error) {
	var st server.StatsResponse
	rec := httptest.NewRecorder()
	e.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", rec.Code)
	}
	return st, json.Unmarshal(rec.Body.Bytes(), &st)
}

// stageSeconds sums the server's exported amber_stage_duration_seconds
// over all stages, read from /metrics.
func (e *endpoint) stageSeconds() (float64, error) {
	rec := httptest.NewRecorder()
	e.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	sc := bufio.NewScanner(rec.Body)
	total := 0.0
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "amber_stage_duration_seconds_sum{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		total += v
	}
	return total, sc.Err()
}

// do sends one request and reads the whole reply; its duration is the
// request's latency. hdr adds request headers (the traced replay's ids).
func (e *endpoint) do(req request, hdr map[string]string) (status int, body []byte, d time.Duration, err error) {
	var hr *http.Request
	if req.query >= 0 {
		hr, err = http.NewRequest(http.MethodGet, e.ts.URL+"/sparql?query="+url.QueryEscape(req.text), nil)
		if err == nil {
			hr.Header.Set("Accept", "application/sparql-results+json")
		}
	} else {
		hr, err = http.NewRequest(http.MethodPost, e.ts.URL+"/sparql", strings.NewReader(req.text))
		if err == nil {
			hr.Header.Set("Content-Type", "application/sparql-update")
		}
	}
	if err != nil {
		return 0, nil, 0, err
	}
	for k, v := range hdr {
		hr.Header.Set(k, v)
	}
	t0 := time.Now()
	resp, err := e.client.Do(hr)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, time.Since(t0), err
}

// sparqlJSON is the part of a SPARQL JSON results document verified.
type sparqlJSON struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []json.RawMessage `json:"bindings"`
	} `json:"results"`
}

// client is one closed-loop client's state.
type client struct {
	gen   *requestGen
	mixed bool
	pool  *pool
	// verified maps pool index → checksum of an already verified
	// response body → its row count, so a repeated answer is verified
	// once.
	verified map[int]map[uint32]int64
	lat      latencies // reads
	wlat     latencies // writes
	rows     int64
	reads    int64
	writes   int64
	tally    tally
	// acked inserts and deletes, for the final-state reference.
	inserted, deleted []rdf.Triple
	peakOverlay       int
}

func newClient(in *lubmInputs, seed int64, c int, mixed bool, batch int) *client {
	return &client{gen: newRequestGen(in, seed, c, mixed, batch), mixed: mixed, pool: in.pool, verified: map[int]map[uint32]int64{}}
}

// checkRead verifies one query response: status 200, a SPARQL JSON
// document with the query's head vars and, on serve-read, the query's
// row count. It returns the row count.
func (c *client) checkRead(i int, status int, body []byte) (int64, error) {
	if status != http.StatusOK {
		return 0, fmt.Errorf("query %d: status %d: %.200s", i, status, body)
	}
	sum := crc32.ChecksumIEEE(body)
	if n, ok := c.verified[i][sum]; ok {
		return n, nil
	}
	var doc sparqlJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, fmt.Errorf("query %d: response does not parse: %v", i, err)
	}
	if !slices.Equal(doc.Head.Vars, c.pool.vars[i]) {
		return 0, fmt.Errorf("query %d: head vars %v, want %v", i, doc.Head.Vars, c.pool.vars[i])
	}
	n := int64(len(doc.Results.Bindings))
	if !c.mixed && n != c.pool.rows[i] {
		return 0, fmt.Errorf("query %d: %d rows, want %d", i, n, c.pool.rows[i])
	}
	if c.verified[i] == nil {
		c.verified[i] = map[uint32]int64{}
	}
	c.verified[i][sum] = n
	return n, nil
}

// step sends the client's next request and checks the reply, recording
// latencies when record is set. It returns the time spent verifying,
// which is off the clock.
func (c *client) step(e *endpoint, record bool) time.Duration {
	req := c.gen.next()
	status, body, d, err := e.do(req, nil)
	c.tally.attempted++
	v0 := time.Now()
	if req.query < 0 {
		switch {
		case err != nil:
			c.tally.fail("write: %v", err)
		case status != http.StatusNoContent:
			c.tally.fail("write: status %d: %.200s", status, body)
		default:
			c.inserted = append(c.inserted, req.adds...)
			c.deleted = append(c.deleted, req.dels...)
		}
		if record {
			c.wlat.add(d)
			c.writes++
			g := e.db.Generation()
			c.peakOverlay = max(c.peakOverlay, g.DeltaAdds+g.DeltaTombstones)
		}
		return time.Since(v0)
	}
	var n int64
	if err == nil {
		n, err = c.checkRead(req.query, status, body)
	}
	if err != nil {
		c.tally.fail("%v", err)
	}
	if record {
		c.lat.add(d)
		c.reads++
		c.rows += n
	}
	return time.Since(v0)
}

// phase runs every client closed-loop for dur of its own clock, which
// excludes the time it spends verifying. It returns each client's
// measured time.
func phase(e *endpoint, clients []*client, dur time.Duration, record bool) []time.Duration {
	out := make([]time.Duration, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			var verify time.Duration
			for time.Since(start)-verify < dur {
				verify += c.step(e, record)
			}
			out[i] = time.Since(start) - verify
		}()
	}
	wg.Wait()
	return out
}

func runServeRead(r *run) error  { return runServe(r, false) }
func runServeMixed(r *run) error { return runServe(r, true) }

func runServe(r *run, mixed bool) error {
	in, err := makeLUBMInputs(r)
	if err != nil {
		return err
	}
	e, err := measureSetup(r, func() (*endpoint, error) {
		return openEndpoint(r, in, mixed)
	}, (*endpoint).close)
	if err != nil {
		return err
	}
	e.listen(nil)
	clients := make([]*client, serveClients)
	for c := range clients {
		clients[c] = newClient(in, r.seed, c, mixed, r.size.batch)
	}
	// A fixed number of warm-up requests, not a fixed time, so every run
	// measures from the same cache state: on serve-read the result and
	// plan caches fill from the Zipf mix over a few thousand requests; on
	// serve-mixed every write invalidates them anyway.
	warmup := r.size.warmupRead
	if mixed {
		warmup = r.size.warmupMixed
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range warmup {
				c.step(e, false)
			}
		}()
	}
	wg.Wait()
	st0, err := e.getStats()
	if err != nil {
		return err
	}
	ws0, comp0 := e.db.WriteStats(), e.db.Generation().Compactions
	// The measured phase runs in segments; queries_per_s is the median of
	// the segments' rates, so a brief stall of the machine moves it less.
	var rates []float64
	times := make([]time.Duration, len(clients))
	for range measureSegments {
		before := make([]int64, len(clients))
		for i, c := range clients {
			before[i] = c.reads
		}
		q := 0.0
		for i, d := range phase(e, clients, r.seconds/measureSegments, true) {
			q += float64(clients[i].reads-before[i]) / d.Seconds()
			times[i] += d
		}
		rates = append(rates, q)
	}
	st1, err := e.getStats()
	if err != nil {
		return err
	}
	ws1, comp1 := e.db.WriteStats(), e.db.Generation().Compactions

	var lat, wlat []float64
	var rps, wps float64
	peak := 0
	for i, c := range clients {
		lat = append(lat, c.lat...)
		wlat = append(wlat, c.wlat...)
		secs := times[i].Seconds()
		rps += float64(c.rows) / secs
		wps += float64(c.writes) / secs
		peak = max(peak, c.peakOverlay)
		r.add(&c.tally)
	}
	setLatency(r, lat)
	r.set("queries_per_s", median(rates))
	hits, misses := st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses
	fmt.Fprintf(logw, "%s: %d reads, %d writes; cache hit ratio %.3f (%d hits, %d misses); %d compactions; queries/s per segment: %.1f\n",
		r.workload, len(lat), len(wlat), float64(hits)/float64(max(hits+misses, 1)), hits, misses, comp1-comp0, rates)

	if mixed {
		if err := checkFinalState(r, in, e, clients); err != nil {
			return err
		}
	} else if err := e.close(); err != nil {
		return err
	}
	if !r.traced {
		return nil
	}
	r.set("rows_per_s", rps)
	r.set("error_rate", float64(r.failed)/float64(max(r.attempted, 1)))
	r.set("server.rejected", float64(st1.Rejected-st0.Rejected))
	if mixed {
		r.set("write_p50_ms", quantile(wlat, 0.5))
		r.set("write_p99_ms", quantile(wlat, 0.99))
		r.set("writes_per_s", wps)
		if g := ws1.Groups - ws0.Groups; g > 0 {
			r.set("core.mean_group_size", float64(ws1.Batches-ws0.Batches)/float64(g))
		}
		r.set("core.compactions", float64(comp1-comp0))
		r.set("delta.overlay_entries_peak", float64(peak))
	}
	return traceServe(r, in, mixed)
}

// checkFinalState checks serve-mixed's durable answers against a
// reference built from the corpus plus acknowledged inserts minus
// acknowledged deletes: a sample of the pool on the database as the run
// left it, the same sample after closing and reopening it from its
// directory (WAL replay), and the whole pool once that is compacted.
// Answers over the overlay are slow, hence the sample.
func checkFinalState(r *run, in *lubmInputs, e *endpoint, clients []*client) error {
	base, err := decodeNT(in.nt)
	if err != nil {
		return err
	}
	deleted := map[rdf.Triple]bool{}
	var final []rdf.Triple
	for _, c := range clients {
		for _, t := range c.deleted {
			deleted[t] = true
		}
	}
	for _, t := range base {
		if !deleted[t] {
			final = append(final, t)
		}
	}
	for _, c := range clients {
		final = append(final, c.inserted...)
	}
	want, err := referenceRows(final, in.pool.texts)
	if err != nil {
		return err
	}
	const sampleStride = 10
	check := func(db *amber.DB, when string, stride int) {
		for i := 0; i < len(in.pool.texts); i += stride {
			r.attempted++
			p, err := db.Prepare(in.pool.texts[i])
			var n uint64
			if err == nil {
				n, err = p.Count(nil)
			}
			if err != nil || int64(n) != want[i] {
				r.fail("%s: query %d: %d rows (err %v), reference %d", when, i, n, err, want[i])
			}
		}
	}
	e.db.WaitCompaction()
	check(e.db, "after the run", sampleStride)
	dir := e.dir
	e.dir = ""
	if err := e.close(); err != nil {
		return err
	}
	db, err := openDurable(dir, in.nt)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	check(db, "after reopen", sampleStride)
	if err := db.Compact(); err != nil {
		return err
	}
	check(db, "after reopen and compaction", 1)
	if err := db.Close(); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// replaySequence is the fixed request sequence of a traced run's
// single-client replays.
func replaySequence(r *run, in *lubmInputs, mixed bool) []request {
	gen := newRequestGen(in, r.seed, serveClients, mixed, r.size.batch)
	seq := make([]request, r.size.replay)
	for i := range seq {
		seq[i] = gen.next()
	}
	return seq
}

// replayHTTP sends seq on one client to a fresh endpoint, with automatic
// compaction off so every run of it sees the same states. With a tracer
// it records a root span per request and a server.ServeHTTP child around
// the handler, and reads the server's stage timings after each reply. It
// returns the summed request latency and the reads among them.
func replayHTTP(r *run, in *lubmInputs, mixed bool, seq []request, tr *tracer) (time.Duration, int, error) {
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				parent, _ := strconv.Atoi(req.Header.Get("X-Bench-Span"))
				reqID, _ := strconv.ParseInt(req.Header.Get("X-Bench-Req"), 10, 64)
				id := tr.start("server.ServeHTTP", parent, reqID)
				h.ServeHTTP(w, req)
				tr.end(id)
			})
		}
	}
	e, err := openEndpoint(r, in, mixed)
	if err != nil {
		return 0, 0, err
	}
	e.listen(wrap)
	e.db.SetCompactThreshold(0)
	c := &client{mixed: mixed, pool: in.pool, verified: map[int]map[uint32]int64{}}
	st0, err := e.getStats()
	if err != nil {
		return 0, 0, err
	}
	var total time.Duration
	var selfMS []float64
	reads := 0
	for i, req := range seq {
		reqID := int64(i + 1)
		var stage0 float64
		if tr != nil {
			if stage0, err = e.stageSeconds(); err != nil {
				return 0, 0, err
			}
		}
		root := tr.start("request", 0, reqID)
		status, body, d, derr := e.do(req, map[string]string{"X-Bench-Span": strconv.Itoa(root), "X-Bench-Req": strconv.FormatInt(reqID, 10)})
		tr.end(root)
		total += d
		c.tally.attempted++
		if req.query < 0 {
			if derr != nil || status != http.StatusNoContent {
				c.tally.fail("replay write %d: status %d, err %v", i, status, derr)
			}
			continue
		}
		reads++
		if derr == nil {
			_, derr = c.checkRead(req.query, status, body)
		}
		if derr != nil {
			c.tally.fail("replay: %v", derr)
		}
		if tr != nil {
			stage1, err := e.stageSeconds()
			if err != nil {
				return 0, 0, err
			}
			// The handler's span has ended: the server writes the reply's
			// last bytes only after the handler returns.
			if serve, ok := tr.child(root, "server.ServeHTTP"); ok {
				stageMS := (stage1 - stage0) * 1e3
				tr.attr(serve.ID, "stage_ms", stageMS)
				selfMS = append(selfMS, ms(serve.dur())-stageMS)
			}
		}
	}
	r.add(&c.tally)
	if tr != nil {
		st1, err := e.getStats()
		if err != nil {
			return 0, 0, err
		}
		hits, misses := st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses
		r.set("server.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
		r.set("server.self_ms", median(selfMS))
	}
	return total, reads, e.close()
}

// traceServe is the serve workloads' traced part: set-up through the
// layer functions; the replay sequence over HTTP untraced, then traced;
// the same sequence through the layers' public functions; and the rows
// materialized through amber for allocation counts.
func traceServe(r *run, in *lubmInputs, mixed bool) error {
	tr := newTracer()
	view, err := layerSetup(r, tr, in.nt)
	if err != nil {
		return err
	}
	seq := replaySequence(r, in, mixed)
	d, reads, err := replayHTTP(r, in, mixed, seq, nil)
	if err != nil {
		return err
	}
	r.set("trace.untraced_queries_per_s", float64(reads)/d.Seconds())
	d, reads, err = replayHTTP(r, in, mixed, seq, tr)
	if err != nil {
		return err
	}
	r.set("trace.traced_queries_per_s", float64(reads)/d.Seconds())
	if err := replayLayers(r, tr, in, view, mixed, seq); err != nil {
		return err
	}
	if err := allocsPerRow(r, in, seq); err != nil {
		return err
	}
	return reportTrace(r, tr)
}

// allocsPerRow answers the replay's reads through amber.Prepared.All,
// building each row as the server's result cache does, and divides the
// allocations by the rows. Preparation is excluded: the server caches
// plans.
func allocsPerRow(r *run, in *lubmInputs, seq []request) error {
	db, err := amber.Open(bytes.NewReader(in.nt))
	if err != nil {
		return err
	}
	var mallocs, bytesAlloc, rows uint64
	var m0, m1 runtimeStats
	for _, req := range seq {
		if req.query < 0 {
			continue
		}
		p, err := db.Prepare(req.text)
		if err != nil {
			return err
		}
		// The counters are process-wide; the least of a few repetitions
		// leaves out allocations by other goroutines.
		minMallocs, minBytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
		var n uint64
		for range 3 {
			m0.read()
			n, err = materialize(p)
			m1.read()
			if err != nil {
				return err
			}
			minMallocs = min(minMallocs, m1.mallocs-m0.mallocs)
			minBytes = min(minBytes, m1.bytes-m0.bytes)
		}
		mallocs += minMallocs
		bytesAlloc += minBytes
		rows += n
	}
	if rows > 0 {
		r.set("amber.allocs_per_row", float64(mallocs)/float64(rows))
		r.set("amber.bytes_per_row", float64(bytesAlloc)/float64(rows))
	}
	return nil
}

// replayLayers answers seq through the layers' public functions: reads
// by layerQuery's rows path; on serve-mixed, writes by sparql.ParseUpdate
// then core.Store.Mutate on a durable store with automatic compaction
// off, ending with one core.Store.Compact of the accumulated overlay.
func replayLayers(r *run, tr *tracer, in *lubmInputs, view *delta.View, mixed bool, seq []request) error {
	var store *core.Store
	if mixed {
		triples, err := decodeNT(in.nt)
		if err != nil {
			return err
		}
		if store, err = core.NewStore(triples); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(r.workdir, "layers-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if _, err := store.AttachWAL(dir, core.WALOptions{Policy: wal.SyncAlways}); err != nil {
			return err
		}
		store.SetCompactThreshold(0)
	}
	var (
		tot               layerTotals
		parseUS, mutateMS []float64
		userBytes         float64
		d0                core.DurabilityInfo
		w0                core.WriteInfo
	)
	if mixed {
		d0, w0 = store.DurabilityInfo(), store.WriteInfo()
	}
	for i, req := range seq {
		reqID := int64(len(seq) + i + 1) // after the HTTP replay's ids
		if req.query >= 0 {
			var rd index.Reader = view
			var res dict.Resolver = view
			if mixed {
				sn := store.Snapshot()
				rd, res = sn.Reader(), sn.Resolver()
			}
			root := tr.start("replay.query", 0, reqID)
			lr, err := layerQuery(tr, root, reqID, rd, res, plan.Default(), req.text, rowsMode, engine.Options{})
			tr.end(root)
			r.attempted++
			switch {
			case err != nil:
				r.fail("layer replay: query %d: %v", req.query, err)
			case !mixed && int64(lr.n) != in.pool.rows[req.query]:
				r.fail("layer replay: query %d: %d rows, want %d", req.query, lr.n, in.pool.rows[req.query])
			default:
				tot.add(lr)
			}
			continue
		}
		root := tr.start("replay.update", 0, reqID)
		id := tr.start("sparql.ParseUpdate", root, reqID)
		t0 := time.Now()
		u, err := sparql.ParseUpdate(req.text)
		parseUS = append(parseUS, float64(time.Since(t0))/1e3)
		tr.end(id)
		if err != nil {
			return err
		}
		var adds, dels []rdf.Triple
		for _, op := range u.Ops {
			switch op.Kind {
			case sparql.UpInsertData:
				adds = append(adds, op.Triples...)
			case sparql.UpDeleteData:
				dels = append(dels, op.Triples...)
			}
		}
		id = tr.start("core.Store.Mutate", root, reqID)
		t0 = time.Now()
		err = store.Mutate(adds, dels)
		mutateMS = append(mutateMS, ms(time.Since(t0)))
		tr.end(id)
		tr.end(root)
		r.attempted++
		if err != nil {
			r.fail("layer replay: write %d: %v", i, err)
		}
		userBytes += float64(len(req.text))
	}
	tot.report(r, true)
	if !mixed || len(mutateMS) == 0 {
		return nil
	}
	d1, w1 := store.DurabilityInfo(), store.WriteInfo()
	writes := float64(len(mutateMS))
	r.set("sparql.update_parse_us", median(parseUS))
	r.set("core.mutate_ms", median(mutateMS))
	r.set("wal.fsyncs_per_write", float64(d1.Fsyncs-d0.Fsyncs)/writes)
	r.set("wal.bytes_per_user_byte", float64(d1.WALBytes-d0.WALBytes)/userBytes)
	r.set("delta.overlay_copied_bytes_per_write", float64(w1.OverlayBytesCopied-w0.OverlayBytesCopied)/writes)
	root := tr.start("replay.compact", 0, 0)
	id := tr.start("core.Store.Compact", root, 0)
	err := store.Compact()
	d := tr.end(id)
	tr.end(root)
	if err != nil {
		return err
	}
	r.set("core.compaction_s", d.Seconds())
	return store.CloseWAL()
}

// runtimeStats is the part of runtime.MemStats allocsPerRow reads.
type runtimeStats struct{ mallocs, bytes uint64 }

func (s *runtimeStats) read() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.mallocs, s.bytes = m.Mallocs, m.TotalAlloc
}

// materialize builds every row as a term map, as the server does for
// its result cache, and returns the row count.
func materialize(p *amber.Prepared) (uint64, error) {
	var rows []map[string]amber.Term
	err := p.QueryIterContext(context.Background(), nil, func(b amber.Binding) bool {
		rows = append(rows, b.Map())
		return true
	})
	return uint64(len(rows)), err
}
