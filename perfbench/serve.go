package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"nucanet/internal/core"
	"nucanet/internal/serve"
)

// serve-mixed: nucad in process (serve.New with two workers behind an
// httptest server on loopback TCP), driven by two closed-loop clients
// over two connections with the seeded stream of stream.go.

// serveReqPerSecond sizes the stream: requests per nominal second.
const serveReqPerSecond = 900

// minServeRequests keeps ten misses beyond the miss p90.
const minServeRequests = 100 * missEvery

const serveClients = 2

// daemon is one in-process server and its client.
type daemon struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	hot    [][]byte // response body of each hot key, from priming
}

func startDaemon(run func(core.Options) (core.Result, error)) *daemon {
	srv := serve.New(serve.Config{Workers: serveClients, Run: run})
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}
	return &daemon{srv: srv, ts: ts, client: &http.Client{Transport: tr}}
}

func (d *daemon) close() {
	d.ts.Close()
	d.srv.Close()
	d.client.Transport.(*http.Transport).CloseIdleConnections()
}

// outcome is one request's result as the client saw it.
type outcome struct {
	status int
	cache  string // X-Nucad-Cache
	body   []byte
	dur    time.Duration
	err    error
}

func (d *daemon) post(client string, body []byte) outcome {
	s := time.Now()
	req, err := http.NewRequest(http.MethodPost, d.ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client", client)
	resp, err := d.client.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return outcome{resp.StatusCode, resp.Header.Get("X-Nucad-Cache"), b, time.Since(s), err}
}

// drive sends bodies from serveClients closed-loop clients, each taking
// the next unsent request when its previous one completes, and returns
// the outcomes by request index.
func (d *daemon) drive(bodies [][]byte, before func(i int)) []outcome {
	out := make([]outcome, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(client string) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				if before != nil {
					before(i)
				}
				out[i] = d.post(client, bodies[i])
			}
		}(fmt.Sprintf("c%d", c))
	}
	wg.Wait()
	return out
}

// prime sends every hot key once; each must be a miss.
func (d *daemon) prime(hot [][]byte) error {
	d.hot = make([][]byte, len(hot))
	for i, o := range d.drive(hot, nil) {
		if o.err != nil || o.status != http.StatusOK || o.cache != "miss" {
			return fmt.Errorf("priming hot key %d: status %d, cache %q, err %v", i, o.status, o.cache, o.err)
		}
		d.hot[i] = o.body
	}
	return nil
}

func (d *daemon) stats() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	resp, err := d.client.Get(d.ts.URL + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func encodeAll(reqs []serve.RunRequest) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// servePass is one timed pass over the stream.
type servePass struct {
	hit, miss Timing
	wall      float64 // seconds
	delta     Counters
}

func runServeMixed(r Run) (*Report, error) {
	n := max(minServeRequests, r.Seconds*serveReqPerSecond)
	var st Stream
	var hotBodies, reqBodies [][]byte
	var d *daemon
	var firstHot [][]byte
	setupS, err := timeSetup(func(last bool) error {
		st = NewStream(r.Seed, n)
		runs := make([]serve.RunRequest, len(st.Reqs))
		for i, q := range st.Reqs {
			runs[i] = q.Run
		}
		var err error
		if hotBodies, err = encodeAll(st.Hot); err != nil {
			return err
		}
		if reqBodies, err = encodeAll(runs); err != nil {
			return err
		}
		d = startDaemon(nil)
		if err := d.prime(hotBodies); err != nil {
			d.close()
			return err
		}
		if firstHot == nil {
			firstHot = d.hot
		}
		if !last {
			d.close()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer func() { d.close() }()

	rep := &Report{Attempted: n}
	// The same hot key must produce the same bytes on every server
	// instance the set-up started.
	for i := range d.hot {
		if !bytes.Equal(d.hot[i], firstHot[i]) {
			rep.fail("hot key %d: body differs between two servers", i)
		}
	}
	pass := func(d *daemon, before func(int)) servePass {
		p := servePass{hit: Timing{Name: "serve-mixed hit"}, miss: Timing{Name: "serve-mixed miss"}}
		c0 := readCounters()
		t0 := time.Now()
		outs := d.drive(reqBodies, before)
		p.wall = time.Since(t0).Seconds()
		p.delta = readCounters().Sub(c0)
		for i, o := range outs {
			q := st.Reqs[i]
			want := "miss"
			if q.Hot >= 0 {
				want = "hit"
			}
			switch {
			case o.err != nil:
				rep.fail("request %d: %v", i, o.err)
			case o.status != http.StatusOK:
				rep.fail("request %d: status %d", i, o.status)
			case o.cache != want:
				rep.fail("request %d: cache %q, constructed as %s", i, o.cache, want)
			case q.Hot >= 0 && !bytes.Equal(o.body, d.hot[q.Hot]):
				rep.fail("request %d: hit body differs from hot key %d's miss body", i, q.Hot)
			case q.Hot >= 0:
				p.hit.Samples = append(p.hit.Samples, ms(o.dur))
			default:
				p.miss.Samples = append(p.miss.Samples, ms(o.dur))
			}
		}
		return p
	}
	p50s := func(p servePass) (hit, miss float64, err error) {
		if hit, err = p.hit.Percentile(50); err != nil {
			return
		}
		miss, err = p.miss.Percentile(50)
		fmt.Println("  " + p.hit.Describe(50))
		fmt.Println("  " + p.miss.Describe(50))
		return
	}

	ref := pass(d, nil)
	misses := float64(Misses(n))
	hitP50, missP50, err := p50s(ref)
	if err != nil {
		return nil, err
	}
	if !r.Trace {
		rep.set("accesses_per_s", misses*streamAccess/ref.wall, "1/s")
		rep.set("runs_per_s", misses/ref.wall, "1/s")
		rep.set("run_p50_ms", missP50, "ms")
		rep.set("op_p50_ms", hitP50, "ms")
		addCommon(rep, n, ref.delta, setupS)
		return rep, nil
	}
	return rep, traceServe(r, rep, st, hotBodies, ref, pass)
}

// traceServe is serve-mixed's traced run: after the untraced reference
// pass, a fresh server whose misses run through a traced Config.Run
// wrapper serves the same stream again, then every hit of the stream is
// replayed straight into the handler to split handler from transport.
func traceServe(r Run, rep *Report, st Stream, hotBodies [][]byte, ref servePass, pass func(*daemon, func(int)) servePass) error {
	tr := newTracer()
	layers := newCoreLayers(false)
	// A miss's configuration is unique in the stream, so its seed links
	// the wrapper's spans to the request span that caused them.
	var mu sync.Mutex
	reqSpan := map[uint64]uint64{}
	wrapper := func(o core.Options) (core.Result, error) {
		mu.Lock()
		id, timed := reqSpan[o.Seed]
		mu.Unlock()
		if !timed {
			return core.Run(o) // priming
		}
		return layers.Run(tr, id, id, o)
	}
	d := startDaemon(wrapper)
	defer d.close()
	if err := d.prime(hotBodies); err != nil {
		return err
	}
	rep.Attempted += len(st.Reqs)
	reqStart := make([]time.Time, len(st.Reqs))
	ids := make([]uint64, len(st.Reqs))
	before := func(i int) {
		ids[i] = tr.ID()
		reqStart[i] = time.Now()
		if st.Reqs[i].Hot < 0 {
			mu.Lock()
			reqSpan[*st.Reqs[i].Run.Seed] = ids[i]
			mu.Unlock()
		}
	}
	if err := tr.StartProfile(); err != nil {
		return err
	}
	traced := pass(d, before)
	for i := range ids {
		tr.Record(ids[i], 0, ids[i], "POST /v1/run", reqStart[i])
	}
	samples, err := tr.StopProfile()
	if err != nil {
		return err
	}
	stats, err := d.stats()
	if err != nil {
		return fmt.Errorf("reading /v1/stats: %w", err)
	}

	handler := Timing{Name: "serve-mixed handler hit"}
	h := d.srv.Handler()
	for i, q := range st.Reqs {
		if q.Hot < 0 {
			continue
		}
		id := tr.ID()
		s := time.Now()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(hotBodies[q.Hot])))
		handler.Samples = append(handler.Samples, ms(tr.Record(id, 0, id, "Handler.ServeHTTP", s)))
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), d.hot[q.Hot]) {
			rep.fail("direct handler call for request %d: status %d or body differs", i, w.Code)
		}
	}
	rep.Attempted += len(handler.Samples)

	if err := layers.Report(rep); err != nil {
		return err
	}
	runP50, err := layers.total.Percentile(50)
	if err != nil {
		return err
	}
	hitP50, err := traced.hit.Percentile(50)
	if err != nil {
		return err
	}
	missP50, err := traced.miss.Percentile(50)
	if err != nil {
		return err
	}
	handlerP50, err := handler.Percentile(50)
	if err != nil {
		return err
	}
	hitP90, err := ref.hit.Percentile(90)
	if err != nil {
		return err
	}
	missP90, err := ref.miss.Percentile(90)
	if err != nil {
		return err
	}
	for _, s := range []string{layers.total.Describe(50), traced.hit.Describe(50), traced.miss.Describe(50),
		handler.Describe(50), ref.hit.Describe(90), ref.miss.Describe(90)} {
		fmt.Println("  " + s)
	}
	rep.layer("serve.run_ms", runP50)
	rep.layer("serve.miss_overhead_ms", missP50-runP50)
	rep.layer("serve.handler_hit_us", handlerP50*1e3)
	rep.layer("serve.transport_share", 1-handlerP50/hitP50)
	rep.layer("serve.hit_ratio", float64(stats.Cache.Hits)/float64(stats.Cache.Hits+stats.Cache.Misses))
	rep.layer("serve.coalesced", float64(stats.Coalesced))
	rep.layer("serve.rejected", float64(stats.Rejected))
	rep.layer("serve.hit_p90_ms", hitP90)
	rep.layer("serve.miss_p90_ms", missP90)
	rep.layer("serve.req_per_s", float64(len(st.Reqs))/ref.wall)
	addRuntime(rep, traced.delta)
	rep.layer("tracing.overhead_ratio", traced.wall/ref.wall)
	addShares(rep, samples)
	zeroUnset(rep)
	return tr.Write(r.OutDir, "serve-mixed", r.Seed)
}
