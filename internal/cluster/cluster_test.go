package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/trustnet"
)

// runLocal runs the scenario's session single-process and returns its epoch
// history — the reference every cluster topology must match bit-for-bit.
func runLocal(t *testing.T, sc trustnet.Scenario) []trustnet.EpochStats {
	t.Helper()
	eng, err := sc.NewEngine()
	if err != nil {
		t.Fatalf("local engine: %v", err)
	}
	runSession(t, eng, sc)
	return eng.History()
}

func runSession(t *testing.T, eng *trustnet.Engine, sc trustnet.Scenario) {
	t.Helper()
	s, err := eng.Session(context.Background(), trustnet.WithMaxEpochs(sc.Epochs), trustnet.WithSchedule(sc.Schedule))
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	for _, err := range s.Epochs() {
		if err != nil {
			t.Fatalf("epoch: %v", err)
		}
	}
}

// startWorkers dials n loopback workers against ln and runs each in a
// goroutine. The returned wait func joins them (checking clean exits); the
// conns let tests kill individual workers.
func startWorkers(t *testing.T, ln *LoopbackListener, n int) (conns []Conn, wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		conn, err := ln.Dial()
		if err != nil {
			t.Fatalf("dial worker %d: %v", i, err)
		}
		conns = append(conns, conn)
		wg.Add(1)
		go func(i int, conn Conn) {
			defer wg.Done()
			errs[i] = RunWorker(conn, fmt.Sprintf("w%d", i))
		}(i, conn)
	}
	return conns, func() {
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Logf("worker %d exit: %v", i, err)
			}
		}
	}
}

// runCluster runs the scenario under a loopback master with n workers and
// returns the history plus the master (already shut down).
func runCluster(t *testing.T, sc trustnet.Scenario, n int) ([]trustnet.EpochStats, *Master) {
	t.Helper()
	ln := NewLoopbackListener()
	m, err := NewMaster(sc, MasterConfig{Listener: ln, HeartbeatEvery: -1, PhaseTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	defer m.Shutdown()
	_, wait := startWorkers(t, ln, n)
	if err := m.WaitForWorkers(n, 5*time.Second); err != nil {
		t.Fatalf("wait workers: %v", err)
	}
	runSession(t, m.Engine(), sc)
	hist := m.Engine().History()
	m.Shutdown()
	wait()
	return hist, m
}

// histBytes renders an epoch history for bitwise comparison: %#v prints
// every float in its shortest round-tripping form, so equal bytes mean
// equal bits.
func histBytes(hist []trustnet.EpochStats) []byte {
	return fmt.Appendf(nil, "%#v", hist)
}

// TestGoldenTopologies is the subsystem's core invariant: equal seeds give
// bit-identical epoch histories for local execution and 1-, 2- and 4-worker
// loopback clusters, on a schedule-bearing scenario. Its leave, whitewash
// and join waves are membership changes, not honesty-only ones, so they
// must force full replica resyncs past the bootstrap sync.
func TestGoldenTopologies(t *testing.T) {
	sc := trustnet.MustScenario("churnstorm")
	sc.Epochs = 10
	want := histBytes(runLocal(t, sc))
	for _, workers := range []int{1, 2, 4} {
		hist, m := runCluster(t, sc, workers)
		if got := histBytes(hist); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: cluster history diverged from local run", workers)
		}
		scatters, spmvs := m.RemotePhases()
		if scatters == 0 {
			t.Errorf("workers=%d: no scatter chunks ran remotely", workers)
		}
		if spmvs == 0 {
			t.Errorf("workers=%d: no SpMV ranges ran remotely", workers)
		}
		if resyncs := m.Resyncs(); resyncs <= uint64(workers) {
			t.Errorf("workers=%d: resyncs = %d, want > %d: membership waves must resync replicas", workers, resyncs, workers)
		}
	}
}

// TestGoldenPowerTrust covers the second delegating mechanism end to end.
func TestGoldenPowerTrust(t *testing.T) {
	sc := trustnet.MustScenario("baseline")
	sc.Mechanism = trustnet.MechanismSpec{Kind: "powertrust"}
	sc.Epochs = 6
	want := histBytes(runLocal(t, sc))
	hist, m := runCluster(t, sc, 2)
	if got := histBytes(hist); !bytes.Equal(got, want) {
		t.Errorf("powertrust cluster history diverged from local run")
	}
	if scatters, spmvs := m.RemotePhases(); scatters == 0 || spmvs == 0 {
		t.Errorf("powertrust: remote phases = (%d, %d), want both > 0", scatters, spmvs)
	}
}

// TestWorkerDeathMidRun kills one of two workers partway through the run;
// the master must fall back to computing the dead worker's chunks locally
// and the result must stay bit-identical.
func TestWorkerDeathMidRun(t *testing.T) {
	sc := trustnet.MustScenario("baseline")
	sc.Epochs = 8
	want := histBytes(runLocal(t, sc))

	ln := NewLoopbackListener()
	m, err := NewMaster(sc, MasterConfig{Listener: ln, HeartbeatEvery: -1, PhaseTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	defer m.Shutdown()
	conns, wait := startWorkers(t, ln, 2)
	if err := m.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatalf("wait workers: %v", err)
	}
	s, err := m.Engine().Session(context.Background(), trustnet.WithMaxEpochs(sc.Epochs), trustnet.WithSchedule(sc.Schedule))
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	epoch := 0
	for _, err := range s.Epochs() {
		if err != nil {
			t.Fatalf("epoch: %v", err)
		}
		epoch++
		if epoch == 3 {
			// Kill a worker between epochs; its next assigned chunk fails
			// mid-phase and is recomputed locally.
			conns[0].Close()
		}
	}
	hist := m.Engine().History()
	m.Shutdown()
	wait()
	if got := histBytes(hist); !bytes.Equal(got, want) {
		t.Errorf("history diverged after mid-run worker death")
	}
	if m.LiveWorkers() != 0 {
		t.Errorf("LiveWorkers after shutdown = %d, want 0", m.LiveWorkers())
	}
}

// TestRejoinAfterDeath replaces a dead worker mid-run with a fresh one; the
// newcomer is adopted at the next phase with a full snapshot sync and the
// run stays bit-identical.
func TestRejoinAfterDeath(t *testing.T) {
	sc := trustnet.MustScenario("baseline")
	sc.Epochs = 8
	want := histBytes(runLocal(t, sc))

	ln := NewLoopbackListener()
	m, err := NewMaster(sc, MasterConfig{Listener: ln, HeartbeatEvery: -1, PhaseTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	defer m.Shutdown()
	conns, wait := startWorkers(t, ln, 2)
	if err := m.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatalf("wait workers: %v", err)
	}
	var lateWait func()
	s, err := m.Engine().Session(context.Background(), trustnet.WithMaxEpochs(sc.Epochs), trustnet.WithSchedule(sc.Schedule))
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	epoch := 0
	for _, err := range s.Epochs() {
		if err != nil {
			t.Fatalf("epoch: %v", err)
		}
		epoch++
		if epoch == 2 {
			conns[0].Close()
		}
		if epoch == 4 {
			_, lateWait = startWorkers(t, ln, 1) // name "w0" is free again: its owner is dead
			if err := m.WaitForWorkers(2, 5*time.Second); err != nil {
				t.Fatalf("rejoin: %v", err)
			}
		}
	}
	hist := m.Engine().History()
	m.Shutdown()
	wait()
	if lateWait != nil {
		lateWait()
	}
	if got := histBytes(hist); !bytes.Equal(got, want) {
		t.Errorf("history diverged across death + rejoin")
	}
}

// TestDuplicateRegistrationRejected: a second worker under a live name is
// turned away with an error message, and the run is unaffected.
func TestDuplicateRegistrationRejected(t *testing.T) {
	sc := trustnet.MustScenario("baseline")
	sc.Epochs = 1
	ln := NewLoopbackListener()
	m, err := NewMaster(sc, MasterConfig{Listener: ln, HeartbeatEvery: -1, PhaseTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	defer m.Shutdown()
	conn1, err := ln.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	done1 := make(chan error, 1)
	go func() { done1 <- RunWorker(conn1, "dup") }()
	if err := m.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatalf("wait: %v", err)
	}
	conn2, err := ln.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	err = RunWorker(conn2, "dup")
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate registration error = %v, want 'already registered'", err)
	}
	if n := m.LiveWorkers(); n != 1 {
		t.Errorf("LiveWorkers = %d, want 1", n)
	}
	m.Shutdown()
	if err := <-done1; err != nil {
		t.Errorf("first worker exit: %v", err)
	}
}

// TestTCPEquivalence runs the same scenario over real TCP sockets and over
// loopback; both must match the local run bit-for-bit (the transports carry
// identical frames, so this pins the framing layer too). The baseline
// scenario is coupled: its per-epoch honesty changes travel as honesty
// frames, so each worker needs exactly one full sync, at bootstrap.
func TestTCPEquivalence(t *testing.T) {
	sc := trustnet.MustScenario("baseline")
	if !sc.Coupled {
		t.Fatal("baseline scenario is expected to be coupled")
	}
	sc.Epochs = 5
	want := histBytes(runLocal(t, sc))

	lhist, lm := runCluster(t, sc, 2)
	if got := histBytes(lhist); !bytes.Equal(got, want) {
		t.Fatalf("loopback history diverged from local run")
	}
	if resyncs := lm.Resyncs(); resyncs != 2 {
		t.Errorf("loopback resyncs = %d, want 2 (one bootstrap sync per worker)", resyncs)
	}

	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	m, err := NewMaster(sc, MasterConfig{Listener: ln, HeartbeatEvery: -1, PhaseTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	defer m.Shutdown()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		conn, err := DialTCP(ln.Addr(), 5*time.Second)
		if err != nil {
			t.Fatalf("dial tcp: %v", err)
		}
		wg.Add(1)
		go func(i int, conn Conn) {
			defer wg.Done()
			errs[i] = RunWorker(conn, fmt.Sprintf("tcp%d", i))
		}(i, conn)
	}
	if err := m.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatalf("wait workers: %v", err)
	}
	runSession(t, m.Engine(), sc)
	hist := m.Engine().History()
	m.Shutdown()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("tcp worker %d exit: %v", i, err)
		}
	}
	if got := histBytes(hist); !bytes.Equal(got, want) {
		t.Errorf("TCP history diverged from local run")
	}
	if resyncs := m.Resyncs(); resyncs != 2 {
		t.Errorf("TCP resyncs = %d, want 2 (one bootstrap sync per worker)", resyncs)
	}
}

// TestNoWorkersDegradesLocally: a master with no registered workers runs
// the scenario entirely locally through the delegates' decline path.
func TestNoWorkersDegradesLocally(t *testing.T) {
	sc := trustnet.MustScenario("baseline")
	sc.Epochs = 3
	want := histBytes(runLocal(t, sc))
	ln := NewLoopbackListener()
	m, err := NewMaster(sc, MasterConfig{Listener: ln, HeartbeatEvery: -1})
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	defer m.Shutdown()
	runSession(t, m.Engine(), sc)
	if got := histBytes(m.Engine().History()); !bytes.Equal(got, want) {
		t.Errorf("workerless master diverged from plain local run")
	}
	if scatters, spmvs := m.RemotePhases(); scatters != 0 || spmvs != 0 {
		t.Errorf("workerless master reported remote phases (%d, %d)", scatters, spmvs)
	}
}

// TestQuiescentRunAvoidsResyncs pins replica coherence on an uncoupled
// steady scenario: it installs the same honesty vector every epoch, and its
// one real override change reaches the workers as a honesty frame, so each
// worker needs only its bootstrap sync.
func TestQuiescentRunAvoidsResyncs(t *testing.T) {
	sc := trustnet.MustScenario("baseline")
	sc.Coupled = false
	sc.Epochs = 10
	want := histBytes(runLocal(t, sc))
	const workers = 2
	hist, m := runCluster(t, sc, workers)
	if got := histBytes(hist); !bytes.Equal(got, want) {
		t.Fatalf("uncoupled cluster history diverged from local run")
	}
	if scatters, _ := m.RemotePhases(); scatters == 0 {
		t.Fatalf("no scatter chunks ran remotely")
	}
	if resyncs := m.Resyncs(); resyncs > workers {
		t.Errorf("resyncs = %d, want <= %d (bootstrap only)", resyncs, workers)
	}
}

// TestClusterMatchesDenseReference closes the golden settled-vs-dense suite
// over the cluster topology: a sparse-tail loopback cluster must reproduce,
// bit-for-bit, the history of a local run forced into the dense reference
// mode (every user recomputed every epoch).
func TestClusterMatchesDenseReference(t *testing.T) {
	sc := trustnet.MustScenario("churnstorm")
	sc.Epochs = 8
	eng, err := sc.NewEngine()
	if err != nil {
		t.Fatalf("local engine: %v", err)
	}
	eng.SetDenseReference(true)
	runSession(t, eng, sc)
	want := histBytes(eng.History())
	hist, _ := runCluster(t, sc, 2)
	if got := histBytes(hist); !bytes.Equal(got, want) {
		t.Errorf("sparse cluster history diverged from dense local reference")
	}
}

// tamperConn is a worker's end of a connection that rewrites the worker's
// frames before they are encoded: a hostile worker speaking well-formed
// frames with bad contents.
type tamperConn struct {
	Conn
	tamper func(env *envelope)
}

func (c *tamperConn) Send(env *envelope) error {
	c.tamper(env)
	return c.Conn.Send(env)
}

// TestHostileWorkerReplies: a worker whose replies decode but do not fit
// the request — indices outside the population, outcomes for the wrong
// consumer, malformed SpMV partials — must not crash the master. It is the
// only worker, so it receives every phase; it is marked dead and its share
// recomputed locally, so the history is unchanged.
func TestHostileWorkerReplies(t *testing.T) {
	sc := trustnet.MustScenario("baseline")
	sc.Epochs = 3
	want := histBytes(runLocal(t, sc))
	cases := map[string]func(env *envelope, n int){
		"provider out of range": func(env *envelope, n int) {
			if env.Kind == kindScatterResult {
				env.ScatterRes.Outcomes[0].Provider = 1 << 40
			}
		},
		"candidate out of range": func(env *envelope, n int) {
			if env.Kind == kindScatterResult {
				out := env.ScatterRes.Outcomes
				out[len(out)-1].Candidates = append(out[len(out)-1].Candidates, n)
			}
		},
		"wrong consumer": func(env *envelope, n int) {
			if env.Kind == kindScatterResult {
				env.ScatterRes.Outcomes[0].Consumer++
			}
		},
		"partial column out of range": func(env *envelope, n int) {
			if env.Kind == kindSpMVResult {
				env.SpMVRes.Parts[0] = linalg.BlockPartial{Cols: []int32{int32(n)}, Vals: []float64{1}}
			}
		},
		"partial columns unsorted": func(env *envelope, n int) {
			if env.Kind == kindSpMVResult {
				env.SpMVRes.Parts[0] = linalg.BlockPartial{Cols: []int32{2, 1}, Vals: []float64{1, 1}}
			}
		},
	}
	for name, tamper := range cases {
		t.Run(name, func(t *testing.T) {
			ln := NewLoopbackListener()
			m, err := NewMaster(sc, MasterConfig{Listener: ln, HeartbeatEvery: -1, PhaseTimeout: 30 * time.Second})
			if err != nil {
				t.Fatalf("master: %v", err)
			}
			defer m.Shutdown()
			n := m.Engine().Peers()
			conn, err := ln.Dial()
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			hostile := make(chan error, 1)
			go func() {
				hostile <- RunWorker(&tamperConn{Conn: conn, tamper: func(env *envelope) { tamper(env, n) }}, "hostile")
			}()
			if err := m.WaitForWorkers(1, 5*time.Second); err != nil {
				t.Fatalf("wait workers: %v", err)
			}
			runSession(t, m.Engine(), sc)
			if live := m.LiveWorkers(); live != 0 {
				t.Errorf("LiveWorkers = %d after hostile replies, want 0", live)
			}
			hist := m.Engine().History()
			m.Shutdown()
			<-hostile
			if got := histBytes(hist); !bytes.Equal(got, want) {
				t.Errorf("history diverged after hostile worker replies")
			}
		})
	}
}

// TestWorkerRejectsHostileHonestyFrame: an honesty frame whose override does
// not fit the replica — too short for the population, or holding a value
// outside [0,1] — must end the worker with an error. Installed, a short
// override would crash the worker on the next scatter, which indexes it by
// consumer.
func TestWorkerRejectsHostileHonestyFrame(t *testing.T) {
	sc := trustnet.MustScenario("baseline")
	sc.Peers = 20
	scJSON, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	n := sc.Peers
	uniform := func(v float64) []float64 {
		h := make([]float64, n)
		for i := range h {
			h[i] = v
		}
		return h
	}
	cases := map[string][]float64{
		"3 entries for 20 peers": {1, 1, 1},
		"value above 1":          uniform(5),
		"NaN value":              uniform(math.NaN()),
		"negative value":         uniform(-0.5),
	}
	for name, override := range cases {
		t.Run(name, func(t *testing.T) {
			master, worker := LoopbackPipe()
			defer master.Close()
			done := make(chan error, 1)
			go func() { done <- RunWorker(worker, "w") }()
			if env, err := master.Recv(); err != nil || env.Kind != kindHello {
				t.Fatalf("handshake: %v (kind %v)", err, env)
			}
			plans := make([]workload.PlannedInteraction, n)
			for i := range plans {
				plans[i] = workload.PlannedInteraction{Consumer: i, RNG: sim.NewRNG(uint64(i)).State()}
			}
			for _, env := range []*envelope{
				{Kind: kindWelcome, Welcome: &welcomeMsg{Scenario: scJSON}},
				{Kind: kindHonesty, Honesty: &honestyMsg{Override: override, HasOverride: true}},
				{Kind: kindScatter, Scatter: &scatterMsg{Plans: plans, Scores: make([]float64, n)}},
			} {
				if err := master.Send(env); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "honesty override") {
					t.Fatalf("RunWorker = %v, want an honesty override error", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("worker neither failed nor exited")
			}
		})
	}
}
