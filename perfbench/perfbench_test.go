package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/serve"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
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

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		kind  string
		want  map[string]string
		names []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
	}{{"end_to_end", endToEnd, b.EndToEnd}, {"per_layer", perLayer, b.PerLayer}} {
		if len(c.names) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", c.kind, len(c.names), len(c.want))
		}
		for _, m := range c.names {
			if unit, ok := c.want[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s metric %s (%s): program has unit %q", c.kind, m.Name, m.Unit, unit)
			}
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for n, want := range map[int]float64{10: 0.5, 20: 0.5, 40: 0.75, 80: 0.875, 2000: 0.995} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}

// A cluster-loopback run must compute exactly the history of the same
// scenario run locally, with every phase delegated to the worker.
func TestClusterDigestMatchesLocal(t *testing.T) {
	sc := activeScenario("cluster-test", 7, 400, 150)
	const epochs = 3
	local, err := sc.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	lm, err := openLoopback(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer lm.release()
	eng := lm.m.Engine()
	if _, err := eng.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	if got, want := historyDigest(eng.History()), historyDigest(local.History()); got != want {
		t.Errorf("cluster digest %s, local digest %s", got, want)
	}
	ep := &episode{layer: map[string]float64{}}
	var sizes []float64
	checkDelegation(lm.m, eng, sc, ep, &sizes)
	if len(ep.problems) > 0 || ep.failed != 0 {
		t.Errorf("delegation check: failed %d, problems %v", ep.failed, ep.problems)
	}
}

// checkRead must accept a response that matches its view and reject one
// that does not.
func TestCheckReadDetectsMismatch(t *testing.T) {
	sc := serveScenario(3)
	sc.Peers, sc.InteractionsPerRound = 60, 0
	eng, err := sc.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Engine: eng, Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Advance(2); err != nil {
		t.Fatal(err)
	}
	v := srv.View()
	score, _ := v.Score(5)
	rank, _ := v.Rank(5)
	good := readResult{i: 2, user: 5, resp: readResponse{Epoch: v.Epoch, User: 5, Score: score, Rank: rank}}
	if msg := checkRead(v, good); msg != "" {
		t.Errorf("matching score response rejected: %s", msg)
	}
	bad := good
	bad.resp.Score += 1e-12
	if checkRead(v, bad) == "" {
		t.Error("score off by 1e-12 accepted")
	}
	top := readResult{i: 0, resp: readResponse{Epoch: v.Epoch, Top: v.TopK(10)}}
	if msg := checkRead(v, top); msg != "" {
		t.Errorf("matching top-10 rejected: %s", msg)
	}
	top.resp.Top[3], top.resp.Top[4] = top.resp.Top[4], top.resp.Top[3]
	if checkRead(v, top) == "" {
		t.Error("reordered top-10 accepted")
	}
	if checkRead(nil, good) == "" {
		t.Error("response naming an unpublished epoch accepted")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "epoch-active", "--trace", "2"},
		{"--workload", "epoch-active", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want a non-zero exit and no result", args, code, out.String())
		}
		if !strings.Contains(errb.String(), "perfbench") {
			t.Errorf("run(%v) printed no diagnostic", args)
		}
	}
}

// The same seed must give the same serving inputs, and every generated
// report must be one the server accepts.
func TestServeInputsDeterministic(t *testing.T) {
	a, b := newServeInputs(9), newServeInputs(9)
	if len(a.readUsers) != len(b.readUsers) || len(a.reports) != serveTicks*serveReportsPerTick {
		t.Fatalf("input sizes %d/%d reads, %d reports", len(a.readUsers), len(b.readUsers), len(a.reports))
	}
	for i := range a.readUsers {
		if a.readUsers[i] != b.readUsers[i] {
			t.Fatalf("read %d differs between equal seeds", i)
		}
	}
	for i, r := range a.reports {
		if r != b.reports[i] {
			t.Fatalf("report %d differs between equal seeds", i)
		}
		if r.Rater == r.Ratee || r.Value < 0 || r.Value > 1 {
			t.Errorf("report %d is invalid: %+v", i, r)
		}
	}
}

// One serving episode under concurrent reads and report POSTs must pass
// every output check; run with -race this also covers the generator's
// shared state.
func TestServeEpisodeChecksPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full serving episode")
	}
	ep, se, err := runServeEpisode(serveScenario(5), newServeInputs(5), newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if len(ep.problems) > 0 || ep.failed != 0 {
		t.Fatalf("failed %d, problems %v", ep.failed, ep.problems)
	}
	if len(ep.epochs) != serveTicks || len(se.reports) != serveTicks*serveReportsPerTick {
		t.Errorf("%d advances and %d reports timed, want %d and %d", len(ep.epochs), len(se.reports), serveTicks, serveTicks*serveReportsPerTick)
	}
}
