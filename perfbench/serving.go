package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/trustnet"
)

// serve-mixed hosts the built-in baseline scenario, scaled up, behind
// internal/serve in Manual mode. The benchmark advances one epoch per tick,
// so every run serves the same epochs, while one open-loop generator sends
// reads at a fixed rate over one keep-alive connection and report POSTs over
// a second one. Requests are timed from when they were due.
const (
	serveUsers    = 5000
	servePerRound = 1000
	serveWarm     = 2
	servePeriod   = 300 * time.Millisecond
	serveTicks    = 6
	// serveReadRate is the fixed read rate (requests/s) in RunLoad's 6:1:1
	// score/top-10/latest mix, far below the rate one connection sustains on
	// the reference machine (see README.md).
	serveReadRate = 200
	// serveReportsPerTick reports are due in the middle of each tick, between
	// 55% and 90% of it: after the previous Advance has returned and before
	// the next one, so every report lands at a known epoch boundary and the
	// history is the same on every run of a seed.
	serveReportsPerTick = 10
	// serveInflight caps outstanding reads; beyond it the generator waits,
	// and the wait shows as lateness.
	serveInflight       = 64
	serveHandlerSamples = 2000
)

// serveInputs are the requests one episode sends, generated from the seed.
type serveInputs struct {
	readUsers []int
	reports   []trustnet.Report
}

func newServeInputs(seed uint64) serveInputs {
	rng := rand.New(rand.NewPCG(seed, 0x5e4e))
	reads := int(serveReadRate * serveTicks * servePeriod.Seconds())
	in := serveInputs{readUsers: make([]int, reads)}
	for i := range in.readUsers {
		in.readUsers[i] = rng.IntN(serveUsers)
	}
	for len(in.reports) < serveTicks*serveReportsPerTick {
		r := trustnet.Report{Rater: rng.IntN(serveUsers), Ratee: rng.IntN(serveUsers), Value: float64(rng.IntN(101)) / 100}
		if r.Rater != r.Ratee {
			in.reports = append(in.reports, r)
		}
	}
	return in
}

// readPath is request i of the 6:1:1 read mix.
func readPath(i, user int) string {
	switch i % 8 {
	case 0:
		return "/v1/top?k=10"
	case 1:
		return "/v1/epochs/latest"
	default:
		return "/v1/scores/" + strconv.Itoa(user)
	}
}

// readResponse is the union of the three read responses.
type readResponse struct {
	Epoch int                 `json:"epoch"`
	User  int                 `json:"user"`
	Score float64             `json:"score"`
	Rank  int                 `json:"rank"`
	Top   []serve.Entry       `json:"top"`
	Stats trustnet.EpochStats `json:"stats"`
}

type readResult struct {
	i, user int
	resp    readResponse
}

// serveEpisode is what one serving episode measured beyond the batch fields,
// and the tracer its requests record spans to.
type serveEpisode struct {
	tr   *tracer
	root int

	mu        sync.Mutex
	reads     []readResult
	queries   []time.Duration
	reports   []time.Duration
	late      time.Duration
	failed    int64
	problems  []string
	handlerUS []float64
}

func (s *serveEpisode) fail(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failed++
	if len(s.problems) < 5 {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
}

func (s *serveEpisode) lateBy(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.late = max(s.late, d)
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func newKeepAliveClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func serveScenario(seed uint64) trustnet.Scenario {
	sc := trustnet.MustScenario("baseline")
	sc.Name = "serve-mixed"
	sc.Peers, sc.Seed, sc.Shards, sc.InteractionsPerRound = serveUsers, seed, 1, servePerRound
	return sc
}

func runServeMixed(p params) (*report, error) {
	var (
		eps              []*episode
		queries, reports []time.Duration
		advances         []time.Duration
		late             time.Duration
	)
	for i := 0; i < p.episodes; i++ {
		seed := p.episodeSeed(i)
		ep, se, err := runServeEpisode(serveScenario(seed), newServeInputs(seed), p.episodeTracer(i))
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", i, err)
		}
		eps = append(eps, ep)
		queries = append(queries, se.queries...)
		reports = append(reports, se.reports...)
		advances = append(advances, ep.epochs...)
		late = max(late, se.late)
	}
	rep := summarize(batchSpec{sc: serveScenario(p.seed)}, eps, p.trace)
	if p.trace != nil {
		rep.layer["serve.advance_ms.p50"], rep.layer["serve.advance_ms.tail"] = latency(advances)
		rep.layer["serve.query_ms.p50"], rep.layer["serve.query_ms.tail"] = latency(queries)
		rep.layer["serve.report_ms.p50"], rep.layer["serve.report_ms.tail"] = latency(reports)
		rep.layer["loadgen.late_ms.max"] = float64(late) / float64(time.Millisecond)
	}
	return rep, nil
}

func runServeEpisode(sc trustnet.Scenario, in serveInputs, tr *tracer) (*episode, *serveEpisode, error) {
	liveHeap() // drop the previous episode before timing set-up
	ep := &episode{traced: tr != nil, seed: sc.Seed, layer: map[string]float64{}}
	root := tr.open("episode", 0)
	defer tr.close(root)
	se := &serveEpisode{tr: tr, root: root}

	t0, c0 := time.Now(), cpuTime()
	eng, err := sc.NewEngine()
	if err != nil {
		return nil, nil, err
	}
	srv, err := serve.New(serve.Config{Engine: eng, Manual: true})
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := srv.Start(ctx); err != nil {
		return nil, nil, err
	}
	if _, err := srv.Advance(serveWarm); err != nil {
		return nil, nil, fmt.Errorf("warm: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()
	readC, reportC := newKeepAliveClient(), newKeepAliveClient()
	defer readC.CloseIdleConnections()
	defer reportC.CloseIdleConnections()
	// Open both keep-alive connections before the window.
	for _, c := range []*http.Client{readC, reportC} {
		resp, err := c.Get(base + "/v1/healthz")
		if err != nil {
			return nil, nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	ep.setup, ep.setupCPU = time.Since(t0), cpuTime()-c0
	tr.add("setup", root, t0, t0.Add(ep.setup))

	views := map[int]*serve.View{}
	var vmu sync.Mutex
	record := func() {
		v := srv.View()
		vmu.Lock()
		views[v.Epoch] = v
		vmu.Unlock()
	}
	record()
	if tr != nil {
		liveHeap()
		ep.gcStart = readGC()
	}
	before := eng.WorkloadEngine().CumulativeStats().Interactions

	// Window: tick k's Advance applies the reports due during tick k-1.
	// advanced[k] closes when boundary k's Advance has returned; sent[k]
	// when every report due in tick k has been answered. The two interlocks
	// only engage when a tick overruns, and then show as lateness.
	start := time.Now().Add(10 * time.Millisecond)
	advanced := make([]chan struct{}, serveTicks+1)
	sent := make([]chan struct{}, serveTicks)
	for k := range advanced {
		advanced[k] = make(chan struct{})
	}
	for k := range sent {
		sent[k] = make(chan struct{})
	}
	close(advanced[0])
	type accepted struct {
		r    trustnet.Report
		tick int
	}
	var acc []accepted
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		se.readLoop(readC, base, in, start)
	}()
	go func() {
		defer wg.Done()
		for k := 0; k < serveTicks; k++ {
			<-advanced[k]
			for j := 0; j < serveReportsPerTick; j++ {
				frac := 0.55 + 0.35*float64(j)/serveReportsPerTick
				due := start.Add(time.Duration(k)*servePeriod + time.Duration(frac*float64(servePeriod)))
				sleepUntil(due)
				se.lateBy(time.Since(due))
				r := in.reports[k*serveReportsPerTick+j]
				if se.postReport(reportC, base, r, due) {
					acc = append(acc, accepted{r, k})
				}
			}
			close(sent[k])
		}
	}()
	for k := 0; k < serveTicks; k++ {
		sleepUntil(start.Add(time.Duration(k+1) * servePeriod))
		<-sent[k]
		a, ca := time.Now(), cpuTime()
		st, err := srv.Advance(1)
		d, cd := time.Since(a), cpuTime()-ca
		tr.add("server.advance", root, a, a.Add(d))
		if err != nil {
			se.fail("advance %d: %v", k, err)
		} else {
			ep.epochs = append(ep.epochs, d)
			ep.cpu = append(ep.cpu, cd)
			ep.measured = append(ep.measured, st)
			record()
		}
		close(advanced[k+1])
	}
	wg.Wait()
	ep.interactions = eng.WorkloadEngine().CumulativeStats().Interactions - before
	if tr != nil {
		ep.gcEnd = readGC()
	}
	ep.heap = liveHeap()
	ep.ledger = eng.Ledger().Len()
	ep.digest = historyDigest(eng.History())

	// Output checks: every view is intact, every response matches the view
	// of the epoch it names, and the applied log holds exactly the accepted
	// reports, each at the boundary that followed its tick.
	for e, v := range views {
		if !v.Consistent() {
			se.problems = append(se.problems, fmt.Sprintf("view of epoch %d is not consistent", e))
		}
	}
	for _, rr := range se.reads {
		if msg := checkRead(views[rr.resp.Epoch], rr); msg != "" {
			se.fail("read %d (%s): %s", rr.i, readPath(rr.i, rr.user), msg)
		}
	}
	applied := srv.AppliedLog()
	if len(applied) != len(acc) {
		se.problems = append(se.problems, fmt.Sprintf("applied log holds %d reports, %d were accepted", len(applied), len(acc)))
	}
	for i := 0; i < min(len(applied), len(acc)); i++ {
		a, want := applied[i], acc[i]
		if a.Rater != want.r.Rater || a.Ratee != want.r.Ratee || a.Value != want.r.Value || a.Epoch != serveWarm+want.tick {
			se.problems = append(se.problems, fmt.Sprintf("applied report %d is %+v, want %+v at epoch %d", i, a, want.r, serveWarm+want.tick))
			break
		}
	}
	if got := srv.Stats().ReportsApplied; got != int64(len(acc)) {
		se.problems = append(se.problems, fmt.Sprintf("server counts %d applied reports, %d were accepted", got, len(acc)))
	}
	if tr != nil {
		se.measureHandler(srv.Handler(), in)
		ep.layer["serve.handler_us.p50"] = trustnet.Quantile(se.handlerUS, 0.5)
		ep.layer["serve.reports_applied"] = float64(srv.Stats().ReportsApplied)
	}
	ep.attempted = int64(len(in.readUsers) + len(in.reports))
	ep.failed = se.failed
	ep.problems = se.problems
	return ep, se, nil
}

// readLoop sends the episode's reads on their schedule, one goroutine per
// request so a slow response never delays the next send.
func (se *serveEpisode) readLoop(c *http.Client, base string, in serveInputs, start time.Time) {
	sem := make(chan struct{}, serveInflight)
	var inflight sync.WaitGroup
	for i, u := range in.readUsers {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / serveReadRate))
		sleepUntil(due)
		sem <- struct{}{}
		se.lateBy(time.Since(due))
		inflight.Add(1)
		go func(i, u int, due time.Time) {
			defer inflight.Done()
			defer func() { <-sem }()
			path := readPath(i, u)
			var rr readResult
			rr.i, rr.user = i, u
			if !se.do(c, http.MethodGet, base+path, nil, http.StatusOK, &rr.resp, due, &se.queries, "http.query") {
				return
			}
			se.mu.Lock()
			se.reads = append(se.reads, rr)
			se.mu.Unlock()
		}(i, u, due)
	}
	inflight.Wait()
}

func (se *serveEpisode) postReport(c *http.Client, base string, r trustnet.Report, due time.Time) bool {
	body, err := json.Marshal(r)
	if err != nil {
		se.fail("encode report: %v", err)
		return false
	}
	var resp struct {
		Accepted bool `json:"accepted"`
	}
	if !se.do(c, http.MethodPost, base+"/v1/reports", body, http.StatusAccepted, &resp, due, &se.reports, "http.report") {
		return false
	}
	if !resp.Accepted {
		se.fail("report %+v not accepted", r)
		return false
	}
	return true
}

// do sends one request and decodes its JSON answer. The latency, measured
// from the request's due time, is appended to lat; a transport error, an
// unexpected status or an undecodable body counts as failed.
func (se *serveEpisode) do(c *http.Client, method, url string, body []byte, want int, out any, due time.Time, lat *[]time.Duration, span string) bool {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		se.fail("%s %s: %v", method, url, err)
		return false
	}
	resp, err := c.Do(req)
	if err != nil {
		se.fail("%s %s: %v", method, url, err)
		return false
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	se.tr.add(span, se.root, due, end)
	if err != nil || resp.StatusCode != want {
		se.fail("%s %s: status %d, err %v", method, url, resp.StatusCode, err)
		return false
	}
	if err := json.Unmarshal(data, out); err != nil {
		se.fail("%s %s: decode: %v", method, url, err)
		return false
	}
	se.mu.Lock()
	*lat = append(*lat, end.Sub(due))
	se.mu.Unlock()
	return true
}

// checkRead compares one read response with the view of the epoch it names.
func checkRead(v *serve.View, rr readResult) string {
	if v == nil {
		return fmt.Sprintf("names epoch %d, which was never published", rr.resp.Epoch)
	}
	switch rr.i % 8 {
	case 0:
		want := v.TopK(10)
		if len(rr.resp.Top) != len(want) {
			return fmt.Sprintf("top-%d has %d entries", len(want), len(rr.resp.Top))
		}
		for k := range want {
			if rr.resp.Top[k] != want[k] {
				return fmt.Sprintf("top entry %d is %+v, view has %+v", k, rr.resp.Top[k], want[k])
			}
		}
	case 1:
		if rr.resp.Stats != v.Stats {
			return "epoch stats differ from the view"
		}
	default:
		score, _ := v.Score(rr.user)
		rank, _ := v.Rank(rr.user)
		if rr.resp.User != rr.user || rr.resp.Score != score || rr.resp.Rank != rank {
			return fmt.Sprintf("user %d score %v rank %d, view has %v rank %d", rr.resp.User, rr.resp.Score, rr.resp.Rank, score, rank)
		}
	}
	return ""
}

// measureHandler times the same read mix in process, on a recorder: the gap
// to the HTTP latency is net/http plus the socket.
func (se *serveEpisode) measureHandler(h http.Handler, in serveInputs) {
	for i := 0; i < serveHandlerSamples; i++ {
		u := in.readUsers[i%len(in.readUsers)]
		req := httptest.NewRequest(http.MethodGet, readPath(i, u), nil)
		rec := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t)
		se.tr.add("serve.handler", se.root, t, t.Add(d))
		se.handlerUS = append(se.handlerUS, float64(d)/float64(time.Microsecond))
	}
}
