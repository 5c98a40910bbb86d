package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/trustnet"
)

// servedScenario is the shared test scenario: big enough to exercise every
// class and the coupling loop, small enough to run dozens of epochs in tests.
func servedScenario(seed uint64, shards int) trustnet.Scenario {
	return trustnet.Scenario{
		Peers: 60,
		Seed:  seed,
		Mix: &trustnet.MixSpec{
			Fractions: map[string]float64{
				"honest":    0.6,
				"malicious": 0.2,
				"selfish":   0.05,
				"traitor":   0.05,
				"colluder":  0.1,
			},
			ForceHonest: []int{0, 1, 2},
		},
		Mechanism:      trustnet.MechanismSpec{Pretrusted: []int{0, 1, 2}},
		Privacy:        &trustnet.PrivacyPolicy{Disclosure: 0.8, TrustGate: 0.1},
		Coupled:        true,
		EpochRounds:    4,
		RecomputeEvery: 2,
		ActivitySkew:   0.8,
		Shards:         shards,
	}
}

func newManualServer(t *testing.T, seed uint64, shards int) (*Server, *trustnet.Engine) {
	t.Helper()
	eng, err := servedScenario(seed, shards).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: eng, Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return srv, eng
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp
}

// postJSON posts body as JSON, or as is when it is a []byte, and decodes
// the JSON reply.
func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, map[string]any) {
	t.Helper()
	var rd io.Reader
	if raw, ok := body.([]byte); ok {
		rd = bytes.NewReader(raw)
	} else if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("POST %s: decode: %v", path, err)
	}
	return resp, out
}

// epochSchedule is the report arrival schedule the determinism tests replay:
// epoch boundary -> reports submitted while that epoch was pending.
var epochSchedule = map[int][]trustnet.Report{
	1: {
		{Rater: 5, Ratee: 9, Value: 1},
		{Rater: 7, Ratee: 3, Value: 0},
	},
	3: {
		{Rater: 10, Ratee: 4, Value: 0},
		{Rater: 11, Ratee: 4, Value: 0},
		{Rater: 12, Ratee: 4, Value: 0.25},
	},
	4: {
		{Rater: 20, Ratee: 21, Value: 0.75},
	},
}

// TestServedDeterminismMatchesBatch is the headline invariant: a served run —
// reports submitted over HTTP against a live daemon, epochs advanced through
// the API — produces bit-identical scores and history to the equivalent batch
// Session run with a ReportWave schedule, at shards 1 and 4.
func TestServedDeterminismMatchesBatch(t *testing.T) {
	const seed, epochs = 42, 6
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// Batch twin: same scenario, ReportWave at each scheduled boundary.
			sched := trustnet.Schedule{}
			for epoch, reports := range epochSchedule {
				sched = sched.At(epoch, trustnet.ReportWave{Reports: reports})
			}
			batch, err := servedScenario(seed, shards).NewEngine()
			if err != nil {
				t.Fatal(err)
			}
			bs, err := batch.Session(context.Background(), trustnet.WithMaxEpochs(epochs), trustnet.WithSchedule(sched))
			if err != nil {
				t.Fatal(err)
			}
			for _, err := range bs.Epochs() {
				if err != nil {
					t.Fatal(err)
				}
			}

			// Served twin: HTTP reports before each boundary, HTTP advance.
			srv, eng := newManualServer(t, seed, shards)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			for epoch := 0; epoch < epochs; epoch++ {
				for _, r := range epochSchedule[epoch] {
					resp, body := postJSON(t, ts, "/v1/reports", r)
					if resp.StatusCode != http.StatusAccepted {
						t.Fatalf("report at epoch %d: status %d, body %v", epoch, resp.StatusCode, body)
					}
				}
				resp, body := postJSON(t, ts, "/v1/advance", nil)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("advance at epoch %d: status %d, body %v", epoch, resp.StatusCode, body)
				}
			}

			// Scores must match bit for bit, through the HTTP surface too.
			want := batch.Mechanism().ScoresView()
			var scored struct {
				Epoch  int       `json:"epoch"`
				Scores []float64 `json:"scores"`
			}
			getJSON(t, ts, "/v1/scores", &scored)
			if scored.Epoch != epochs {
				t.Fatalf("served epoch %d, want %d", scored.Epoch, epochs)
			}
			if len(scored.Scores) != len(want) {
				t.Fatalf("served %d scores, want %d", len(scored.Scores), len(want))
			}
			for i := range want {
				if scored.Scores[i] != want[i] {
					t.Fatalf("score[%d]: served %v != batch %v", i, scored.Scores[i], want[i])
				}
			}

			// Histories must match bit for bit.
			var a, b bytes.Buffer
			if err := gob.NewEncoder(&a).Encode(batch.History()); err != nil {
				t.Fatal(err)
			}
			if err := gob.NewEncoder(&b).Encode(eng.History()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("served history diverges from batch history")
			}

			// The applied log replays the schedule exactly.
			log := srv.AppliedLog()
			var total int
			for epoch, reports := range epochSchedule {
				total += len(reports)
				var got []AppliedReport
				for _, ar := range log {
					if ar.Epoch == epoch {
						got = append(got, ar)
					}
				}
				if len(got) != len(reports) {
					t.Fatalf("applied log has %d reports at epoch %d, want %d", len(got), epoch, len(reports))
				}
				for i, r := range reports {
					if got[i].Rater != r.Rater || got[i].Ratee != r.Ratee || got[i].Value != r.Value {
						t.Fatalf("applied[%d]@%d = %+v, want %+v", i, epoch, got[i], r)
					}
				}
			}
			if len(log) != total {
				t.Fatalf("applied log has %d entries, want %d", len(log), total)
			}
		})
	}
}

// TestQueryEndpoints exercises the read API against a stepped server.
func TestQueryEndpoints(t *testing.T) {
	srv, eng := newManualServer(t, 7, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, err := srv.Advance(3); err != nil {
		t.Fatal(err)
	}

	var health struct {
		Status string `json:"status"`
		Epoch  int    `json:"epoch"`
	}
	if resp := getJSON(t, ts, "/v1/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health.Status != "ok" || health.Epoch != 3 {
		t.Fatalf("healthz = %+v", health)
	}

	var one struct {
		User  int     `json:"user"`
		Score float64 `json:"score"`
		Rank  int     `json:"rank"`
		Epoch int     `json:"epoch"`
	}
	getJSON(t, ts, "/v1/scores/4", &one)
	if want := eng.Mechanism().Score(4); one.Score != want {
		t.Fatalf("score of 4 = %v, want %v", one.Score, want)
	}
	if one.Rank < 1 || one.Rank > eng.Peers() {
		t.Fatalf("rank %d out of range", one.Rank)
	}

	for _, path := range []string{"/v1/scores/999", "/v1/scores/-1"} {
		if resp := getJSON(t, ts, path, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	if resp := getJSON(t, ts, "/v1/scores/abc", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-numeric user: status %d, want 400", resp.StatusCode)
	}

	var top struct {
		Epoch int     `json:"epoch"`
		Top   []Entry `json:"top"`
	}
	getJSON(t, ts, "/v1/top?k=5", &top)
	if len(top.Top) != 5 {
		t.Fatalf("top-5 returned %d entries", len(top.Top))
	}
	for i, e := range top.Top {
		if e.Rank != i+1 {
			t.Fatalf("top[%d].Rank = %d", i, e.Rank)
		}
		if i > 0 && top.Top[i-1].Score < e.Score {
			t.Fatalf("top-K not sorted: %v then %v", top.Top[i-1], e)
		}
	}
	if resp := getJSON(t, ts, "/v1/top?k=zero", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad k: status %d, want 400", resp.StatusCode)
	}

	var latest struct {
		Epoch int                 `json:"epoch"`
		Stats trustnet.EpochStats `json:"stats"`
	}
	getJSON(t, ts, "/v1/epochs/latest", &latest)
	hist := eng.History()
	if latest.Epoch != 3 || latest.Stats.Epoch != hist[len(hist)-1].Epoch {
		t.Fatalf("latest = %+v, history tail = %+v", latest, hist[len(hist)-1])
	}

	var stats Stats
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.Peers != 60 || stats.Mechanism != "eigentrust" || stats.Epoch != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Queries == 0 {
		t.Fatal("query counter never moved")
	}
}

// TestReportValidationOverHTTP pins the 4xx surface for bad reports.
func TestReportValidationOverHTTP(t *testing.T) {
	srv, _ := newManualServer(t, 7, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body any
		want int
	}{
		{"rater-range", trustnet.Report{Rater: -1, Ratee: 1, Value: 1}, http.StatusUnprocessableEntity},
		{"ratee-range", trustnet.Report{Rater: 1, Ratee: 60, Value: 1}, http.StatusUnprocessableEntity},
		{"self", trustnet.Report{Rater: 1, Ratee: 1, Value: 1}, http.StatusUnprocessableEntity},
		{"value", trustnet.Report{Rater: 1, Ratee: 2, Value: 1.5}, http.StatusUnprocessableEntity},
		{"unknown-field", map[string]any{"rater": 1, "ratee": 2, "value": 1, "weight": 3}, http.StatusBadRequest},
		{"garbage", "not json at all", http.StatusBadRequest},
		{"two-reports", []byte(`{"rater":1,"ratee":2,"value":1} {"rater":3,"ratee":4,"value":0}`), http.StatusBadRequest},
		{"trailing-garbage", []byte(`{"rater":1,"ratee":2,"value":1}garbage`), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts, "/v1/reports", tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d (body %v)", resp.StatusCode, tc.want, body)
			}
		})
	}
	if n := srv.Stats().ReportsPending; n != 0 {
		t.Fatalf("%d invalid reports slipped into the queue", n)
	}
}

// TestSnapshotEndpointResumes proves the snapshot download is a real
// checkpoint: restoring it into a fresh engine and running the remaining
// epochs reproduces the server's own continuation exactly.
func TestSnapshotEndpointResumes(t *testing.T) {
	srv, eng := newManualServer(t, 99, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, err := srv.Advance(2); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trustnet-Epoch"); got != "2" {
		t.Fatalf("X-Trustnet-Epoch = %q, want 2", got)
	}

	snap, err := trustnet.DecodeSnapshot(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := servedScenario(99, 4).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}

	if _, err := srv.Advance(3); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Run(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	a, b := eng.Mechanism().ScoresView(), restored.Mechanism().ScoresView()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("score[%d]: served %v != restored continuation %v", i, a[i], b[i])
		}
	}
}

// TestEpochStreamSSE subscribes to the SSE stream while a background loop
// runs and checks the event framing and epoch monotonicity.
func TestEpochStreamSSE(t *testing.T) {
	eng, err := servedScenario(13, 0).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: eng, MaxEpochs: 8, EpochInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/epochs/stream?limit=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Start the loop only after subscribing so the stream sees epochs from
	// the beginning.
	if err := srv.Start(ctx); err != nil {
		t.Fatal(err)
	}

	var events []struct {
		Epoch int                 `json:"epoch"`
		Stats trustnet.EpochStats `json:"stats"`
	}
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev struct {
			Epoch int                 `json:"epoch"`
			Stats trustnet.EpochStats `json:"stats"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("stream delivered %d events, want 3 (limit)", len(events))
	}
	for i, ev := range events {
		if ev.Epoch < 1 || (i > 0 && ev.Epoch <= events[i-1].Epoch) {
			t.Fatalf("epochs not monotonic: %+v", events)
		}
	}

	<-srv.Done()
	if err := srv.Err(); err != nil {
		t.Fatal(err)
	}
	if got := srv.View().Epoch; got != 8 {
		t.Fatalf("loop stopped at epoch %d, want 8", got)
	}
}

// TestAdvanceEndpointModes: /v1/advance steps a manual server, refuses a
// looped one, and reports budget exhaustion.
func TestAdvanceEndpointModes(t *testing.T) {
	eng, err := servedScenario(3, 0).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: eng, Manual: true, MaxEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Before Start: 409.
	if resp, _ := postJSON(t, ts, "/v1/advance", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("advance before start: status %d, want 409", resp.StatusCode)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts, "/v1/advance?epochs=2", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advance: status %d, body %v", resp.StatusCode, body)
	}
	if body["epoch"].(float64) != 2 {
		t.Fatalf("advance returned epoch %v, want 2", body["epoch"])
	}
	// Budget exhausted: 409.
	if resp, _ := postJSON(t, ts, "/v1/advance", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("advance past budget: status %d, want 409", resp.StatusCode)
	}
	if !srv.Stats().SessionDone {
		t.Fatal("stats do not report session done")
	}

	// A looped server refuses manual stepping outright.
	leng, err := servedScenario(3, 0).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	looped, err := New(Config{Engine: leng, MaxEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	lts := httptest.NewServer(looped.Handler())
	defer lts.Close()
	if err := looped.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postJSON(t, lts, "/v1/advance", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("advance on looped server: status %d, want 409", resp.StatusCode)
	}
	<-looped.Done()
}

// TestLoopCancellation: cancelling the serve context stops the loop promptly
// even with an unlimited epoch budget, and the server keeps answering reads.
func TestLoopCancellation(t *testing.T) {
	eng, err := servedScenario(17, 0).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: eng}) // unlimited epochs, no interval
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := srv.Start(ctx); err != nil {
		t.Fatal(err)
	}
	for srv.View().Epoch < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-srv.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("loop did not stop after cancel")
	}
	v := srv.View()
	if !v.Consistent() {
		t.Fatal("view inconsistent after shutdown")
	}
	if _, err := v.Score(0); err != nil {
		t.Fatal(err)
	}
}

// TestReportQueueSurvivesBudgetEnd: reports enqueued after the session ends
// are never silently consumed by a boundary that will not run.
func TestReportQueueSurvivesBudgetEnd(t *testing.T) {
	eng, err := servedScenario(23, 0).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: eng, Manual: true, MaxEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Advance(1); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.EnqueueReport(trustnet.Report{Rater: 1, Ratee: 2, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Advance(1); err == nil {
		t.Fatal("advance past budget succeeded")
	}
	if got := srv.Stats().ReportsPending; got != 1 {
		t.Fatalf("pending = %d, want 1 (report must not be consumed)", got)
	}
	if got := len(srv.AppliedLog()); got != 0 {
		t.Fatalf("applied log has %d entries, want 0", got)
	}
}

// TestNewRejectsBadConfig pins constructor validation.
func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil engine accepted")
	}
	eng, err := servedScenario(1, 0).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Engine: eng, MaxEpochs: -1}); err == nil {
		t.Fatal("negative MaxEpochs accepted")
	}
	if _, err := New(Config{Engine: eng, EpochInterval: -time.Second}); err == nil {
		t.Fatal("negative interval accepted")
	}
	srv, err := New(Config{Engine: eng, Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background()); err == nil {
		t.Fatal("double Start accepted")
	}
}
