package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linalg"
	"repro/internal/reputation"
	"repro/internal/workload"
	"repro/trustnet"
)

// MasterConfig configures a cluster master.
type MasterConfig struct {
	// Listener accepts worker connections; nil runs a master with no
	// transport (pure local execution — useful as a degraded mode and in
	// tests that inject connections directly).
	Listener Listener
	// PhaseTimeout bounds every remote exchange (sync+scatter, spmv, ping,
	// handshake). Default 60s.
	PhaseTimeout time.Duration
	// HeartbeatEvery is the idle liveness-ping period. Default 5s; negative
	// disables heartbeats (tests drive liveness through phases).
	HeartbeatEvery time.Duration
}

func (c MasterConfig) withDefaults() MasterConfig {
	if c.PhaseTimeout <= 0 {
		c.PhaseTimeout = 60 * time.Second
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 5 * time.Second
	}
	return c
}

// remoteWorker is the master's handle on one connected worker. Its mutex
// serializes conversations on the connection (phase exchanges, report
// broadcasts, heartbeats); liveness and roster membership are guarded by
// the master's mutex.
type remoteWorker struct {
	name string
	conn Conn

	mu sync.Mutex
	// syncGen/hasSync track which mutation generation the worker's replica
	// was last synced to. Written only inside phase exchanges (which hold
	// mu) and read at phase starts — phases are sequential, so reads see
	// the latest exchange's writes.
	syncGen uint64
	hasSync bool

	alive bool // guarded by Master.mu
}

// markSynced records that the worker's replica now reflects generation gen
// (under the conversation lock, so observeReports' hasSync read is safe).
func (w *remoteWorker) markSynced(gen uint64) {
	w.mu.Lock()
	w.hasSync, w.syncGen = true, gen
	w.mu.Unlock()
}

// exchange sends the given frames back-to-back and waits for one response,
// all under the worker's conversation lock and a single deadline.
func (w *remoteWorker) exchange(timeout time.Duration, reqs ...*envelope) (*envelope, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	for _, r := range reqs {
		if err := w.conn.Send(r); err != nil {
			return nil, err
		}
	}
	return w.conn.Recv()
}

// Master owns a trustnet Engine and distributes its scatter and SpMV phases
// over registered workers. Construct with NewMaster, drive the engine as
// usual (Run/Session — the delegates are installed behind the scenes), and
// Shutdown when done. All exported methods are safe for concurrent use;
// engine-driving itself must stay single-threaded as always.
type Master struct {
	cfg          MasterConfig
	scenarioJSON []byte
	eng          *trustnet.Engine
	we           *workload.Engine
	// scatterer is the mechanism's block-scatter view, used for the
	// master-local fallback when a worker dies mid-SpMV; nil when the
	// mechanism has no SpMV to delegate.
	scatterer reputation.BlockScatterer

	mu      sync.Mutex
	workers []*remoteWorker // adopted into phases
	pending []*remoteWorker // handshaken, not yet adopted
	done    chan struct{}
	closed  bool

	// Diagnostics: chunks/block ranges actually computed remotely (tests
	// assert delegation happened; operators read them in logs).
	remoteScatters atomic.Uint64
	remoteSpMVs    atomic.Uint64
	// resyncs counts full replica-state pushes to stale workers. Mutations
	// that do not change engine state (e.g. installing a bytewise-identical
	// honesty override) must not bump the mutation generation, so a
	// steady-state run resyncs rarely; tests pin that.
	resyncs atomic.Uint64
}

// RemotePhases reports how many scatter chunks and SpMV block ranges were
// computed by workers (as opposed to locally).
func (m *Master) RemotePhases() (scatterChunks, spmvRanges uint64) {
	return m.remoteScatters.Load(), m.remoteSpMVs.Load()
}

// Resyncs reports how many full replica-state pushes stale workers needed.
func (m *Master) Resyncs() uint64 { return m.resyncs.Load() }

// NewMaster builds the engine from the scenario, installs the cluster
// delegates, and (when cfg.Listener is set) starts accepting workers.
// The scenario must be fully serializable — it is streamed to every worker
// as JSON, and both sides must deterministically rebuild identical engines
// from it.
func NewMaster(sc trustnet.Scenario, cfg MasterConfig) (*Master, error) {
	scJSON, err := json.Marshal(sc)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode scenario: %w", err)
	}
	eng, err := sc.NewEngine()
	if err != nil {
		return nil, fmt.Errorf("cluster: build engine: %w", err)
	}
	m := &Master{
		cfg:          cfg.withDefaults(),
		scenarioJSON: scJSON,
		eng:          eng,
		we:           eng.WorkloadEngine(),
		done:         make(chan struct{}),
	}
	m.we.SetScatterDelegate(m.scatterDelegate)
	m.we.SetReportObserver(m.observeReports)
	if d, ok := m.we.Mechanism().(reputation.SpMVDelegator); ok {
		if bs, ok := m.we.Mechanism().(reputation.BlockScatterer); ok {
			m.scatterer = bs
			d.SetSpMVDelegate(m.spmvDelegate)
		}
	}
	if m.cfg.Listener != nil {
		go m.acceptLoop()
	}
	if m.cfg.HeartbeatEvery > 0 {
		go m.heartbeatLoop()
	}
	return m, nil
}

// Engine returns the master's engine; drive it exactly like a local one.
func (m *Master) Engine() *trustnet.Engine { return m.eng }

// acceptLoop admits workers until the listener closes.
func (m *Master) acceptLoop() {
	for {
		conn, err := m.cfg.Listener.Accept()
		if err != nil {
			return
		}
		go m.handshake(conn)
	}
}

// handshake admits one worker: hello in, duplicate-name check, welcome (with
// the scenario spec) out. Admitted workers wait in pending until the next
// phase boundary adopts them.
func (m *Master) handshake(conn Conn) {
	conn.SetDeadline(time.Now().Add(m.cfg.PhaseTimeout))
	env, err := conn.Recv()
	if err != nil || env.Kind != kindHello || env.Hello == nil || env.Hello.Name == "" {
		conn.Close()
		return
	}
	name := env.Hello.Name
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		conn.Close()
		return
	}
	dup := false
	for _, w := range m.workers {
		if w.alive && w.name == name {
			dup = true
		}
	}
	for _, w := range m.pending {
		if w.alive && w.name == name {
			dup = true
		}
	}
	if dup {
		m.mu.Unlock()
		conn.Send(&envelope{Kind: kindError, Err: &errorMsg{Msg: fmt.Sprintf("worker name %q already registered", name)}})
		conn.Close()
		return
	}
	w := &remoteWorker{name: name, conn: conn, alive: true}
	m.pending = append(m.pending, w)
	m.mu.Unlock()
	conn.SetDeadline(time.Time{})
	if err := conn.Send(&envelope{Kind: kindWelcome, Welcome: &welcomeMsg{Scenario: m.scenarioJSON}}); err != nil {
		m.markDead(w)
	}
}

// adoptLive moves pending workers into the roster and returns the live set.
// Called at phase boundaries (and sequential points like Shutdown), so a
// newly adopted worker's first phase starts with a full sync.
func (m *Master) adoptLive() []*remoteWorker {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.workers = append(m.workers, m.pending...)
	m.pending = nil
	var live []*remoteWorker
	for _, w := range m.workers {
		if w.alive {
			live = append(live, w)
		}
	}
	m.workers = append(m.workers[:0], live...)
	return live
}

// LiveWorkers reports how many workers are currently registered and alive
// (adopted or pending).
func (m *Master) LiveWorkers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, w := range m.workers {
		if w.alive {
			n++
		}
	}
	for _, w := range m.pending {
		if w.alive {
			n++
		}
	}
	return n
}

// WaitForWorkers blocks until at least n workers are registered (or timeout
// elapses, which is an error).
func (m *Master) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if m.LiveWorkers() >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %d of %d workers registered after %v", m.LiveWorkers(), n, timeout)
		}
		select {
		case <-m.done:
			return fmt.Errorf("cluster: master shut down while waiting for workers")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// markDead removes a worker from rotation and tears down its connection.
// Idempotent; every failure path funnels here.
func (m *Master) markDead(w *remoteWorker) {
	m.mu.Lock()
	wasAlive := w.alive
	w.alive = false
	m.mu.Unlock()
	if wasAlive {
		w.conn.Close()
	}
}

// heartbeatLoop pings every registered worker between phases so a silently
// dead worker is evicted before (not during) the next phase when possible.
// Pings serialize with phase exchanges on the per-worker lock, so they can
// never interleave inside a conversation.
func (m *Master) heartbeatLoop() {
	t := time.NewTicker(m.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-t.C:
		}
		m.mu.Lock()
		var ws []*remoteWorker
		for _, w := range append(append([]*remoteWorker(nil), m.workers...), m.pending...) {
			if w.alive {
				ws = append(ws, w)
			}
		}
		m.mu.Unlock()
		for _, w := range ws {
			resp, err := w.exchange(m.cfg.PhaseTimeout, &envelope{Kind: kindPing})
			if err != nil || resp.Kind != kindPong {
				m.markDead(w)
			}
		}
	}
}

// chunkRange cuts [0, n) into k near-equal contiguous chunks and returns
// chunk i. Which worker gets which chunk is pure scheduling: every result is
// written back by index, so the cut cannot perturb the merged output.
func chunkRange(n, k, i int) (lo, hi int) {
	per := (n + k - 1) / k
	lo = i * per
	hi = lo + per
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// syncEnvelope snapshots the engine for replicas that are behind generation
// gen. Snapshotting is safe at every phase boundary the delegates run at:
// the plan phase is complete, no reports are pending, and nothing the
// snapshot reads is concurrently mutated.
func (m *Master) syncEnvelope(gen uint64) (*envelope, error) {
	snap, err := m.eng.Snapshot()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		return nil, err
	}
	return &envelope{Kind: kindSync, Sync: &syncMsg{Gen: gen, Snapshot: buf.Bytes()}}, nil
}

// needSync reports whether any of the live workers' replicas are behind gen.
func needSync(live []*remoteWorker, gen uint64) bool {
	for _, w := range live {
		if !w.hasSync || w.syncGen != gen {
			return true
		}
	}
	return false
}

// scatterDelegate implements workload.ScatterDelegate: cut the plan list
// into contiguous chunks, one per live worker, simulate each remotely (after
// resyncing stale replicas), and merge by index. A failed worker's chunk is
// recomputed locally from the same round-immutable inputs — identical bits,
// degraded latency. Declines (false) when no workers are live, handing the
// round back to the engine's local parallel path.
func (m *Master) scatterDelegate(plans []workload.PlannedInteraction, scores []float64, gate float64, pool []int, round int) ([]workload.InteractionOutcome, bool) {
	live := m.adoptLive()
	if len(live) == 0 || len(plans) == 0 {
		return nil, false
	}
	gen := m.we.MutationGen()
	var syncEnv *envelope
	if needSync(live, gen) {
		var err error
		if syncEnv, err = m.syncEnvelope(gen); err != nil {
			return nil, false
		}
	}
	out := make([]workload.InteractionOutcome, len(plans))
	var wg sync.WaitGroup
	for i, w := range live {
		lo, hi := chunkRange(len(plans), len(live), i)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w *remoteWorker, lo, hi int) {
			defer wg.Done()
			res, err := m.scatterOn(w, gen, syncEnv, plans[lo:hi], scores, gate, pool, round)
			if err != nil || len(res) != hi-lo {
				m.markDead(w)
				res = m.we.SimulateChunk(plans[lo:hi], scores, gate, pool, round)
			}
			copy(out[lo:hi], res)
		}(w, lo, hi)
	}
	wg.Wait()
	return out, true
}

// scatterOn runs one worker's chunk: optional resync, then the scatter
// request, one ordered conversation under one deadline.
func (m *Master) scatterOn(w *remoteWorker, gen uint64, syncEnv *envelope, plans []workload.PlannedInteraction, scores []float64, gate float64, pool []int, round int) ([]workload.InteractionOutcome, error) {
	reqs := make([]*envelope, 0, 2)
	stale := !w.hasSync || w.syncGen != gen
	if stale {
		if syncEnv == nil {
			return nil, fmt.Errorf("cluster: stale worker %q without sync payload", w.name)
		}
		reqs = append(reqs, syncEnv)
	}
	reqs = append(reqs, &envelope{Kind: kindScatter, Scatter: &scatterMsg{
		Plans: plans, Scores: scores, Gate: gate,
		Pool: pool, HasPool: pool != nil, Round: round,
	}})
	resp, err := w.exchange(m.cfg.PhaseTimeout, reqs...)
	if err != nil {
		return nil, err
	}
	if resp.Kind != kindScatterResult || resp.ScatterRes == nil {
		return nil, fmt.Errorf("cluster: worker %q: unexpected reply kind %d to scatter", w.name, resp.Kind)
	}
	if stale {
		w.markSynced(gen)
		m.resyncs.Add(1)
	}
	m.remoteScatters.Add(1)
	return resp.ScatterRes.Outcomes, nil
}

// spmvDelegate implements reputation.SpMVDelegate: fan the canonical block
// range out over live workers, recompute dead workers' blocks locally, and
// fold everything in ascending block order — bit-identical to the local
// kernel by linalg's scatter/fold contract.
func (m *Master) spmvDelegate(y, x, dangle []float64) bool {
	if m.scatterer == nil {
		return false
	}
	live := m.adoptLive()
	if len(live) == 0 {
		return false
	}
	blocks := m.scatterer.SpMVBlocks()
	if blocks == 0 {
		return false
	}
	gen := m.we.MutationGen()
	var syncEnv *envelope
	if needSync(live, gen) {
		var err error
		if syncEnv, err = m.syncEnvelope(gen); err != nil {
			return false
		}
	}
	partials := make([][]float64, blocks)
	masses := make([]float64, blocks)
	failed := make([]bool, len(live))
	var wg sync.WaitGroup
	for i, w := range live {
		lob, hib := chunkRange(blocks, len(live), i)
		if lob >= hib {
			continue
		}
		wg.Add(1)
		go func(i int, w *remoteWorker, lob, hib int) {
			defer wg.Done()
			p, ms, err := m.spmvOn(w, gen, syncEnv, x, lob, hib)
			if err != nil || len(p) != hib-lob || len(ms) != hib-lob {
				m.markDead(w)
				failed[i] = true
				return
			}
			copy(partials[lob:hib], p)
			copy(masses[lob:hib], ms)
		}(i, w, lob, hib)
	}
	wg.Wait()
	// Dead workers' blocks are recomputed here, one range at a time: the
	// local scatter shares the mechanism's SpMV workspace.
	for i := range live {
		if failed[i] {
			lob, hib := chunkRange(blocks, len(live), i)
			p, ms := m.scatterer.SpMVScatterBlocks(x, lob, hib)
			copy(partials[lob:hib], p)
			copy(masses[lob:hib], ms)
		}
	}
	linalg.FoldBlocks(y, dangle, partials, masses)
	return true
}

// spmvOn runs one worker's block range: optional resync, then the spmv
// request.
func (m *Master) spmvOn(w *remoteWorker, gen uint64, syncEnv *envelope, x []float64, lob, hib int) ([][]float64, []float64, error) {
	reqs := make([]*envelope, 0, 2)
	stale := !w.hasSync || w.syncGen != gen
	if stale {
		if syncEnv == nil {
			return nil, nil, fmt.Errorf("cluster: stale worker %q without sync payload", w.name)
		}
		reqs = append(reqs, syncEnv)
	}
	reqs = append(reqs, &envelope{Kind: kindSpMV, SpMV: &spmvMsg{X: x, Lob: lob, Hib: hib}})
	resp, err := w.exchange(m.cfg.PhaseTimeout, reqs...)
	if err != nil {
		return nil, nil, err
	}
	if resp.Kind != kindSpMVResult || resp.SpMVRes == nil {
		return nil, nil, fmt.Errorf("cluster: worker %q: unexpected reply kind %d to spmv", w.name, resp.Kind)
	}
	if stale {
		w.markSynced(gen)
		m.resyncs.Add(1)
	}
	m.remoteSpMVs.Add(1)
	return resp.SpMVRes.Partials, resp.SpMVRes.Masses, nil
}

// observeReports mirrors a mechanism-accepted report batch onto every
// synced replica, keeping their feedback matrices current between full
// syncs. Unsynced workers skip the batch — their next sync carries it
// inside the snapshot. Runs on the engine's sequential path, so the sends
// are ordered after any phase exchange and before the next one.
func (m *Master) observeReports(reports []reputation.Report) {
	m.mu.Lock()
	var ws []*remoteWorker
	for _, w := range m.workers {
		if w.alive {
			ws = append(ws, w)
		}
	}
	m.mu.Unlock()
	var env *envelope
	for _, w := range ws {
		w.mu.Lock()
		if !w.hasSync {
			w.mu.Unlock()
			continue
		}
		if env == nil {
			// Copy: the engine reuses the batch buffer after we return.
			env = &envelope{Kind: kindReports, Reports: &reportsMsg{Reports: append([]reputation.Report(nil), reports...)}}
		}
		w.conn.SetDeadline(time.Now().Add(m.cfg.PhaseTimeout))
		err := w.conn.Send(env)
		w.mu.Unlock()
		if err != nil {
			m.markDead(w)
		}
	}
}

// Shutdown detaches the delegates (the engine keeps working locally),
// broadcasts shutdown to every worker so they exit cleanly, and closes the
// listener. Safe to call more than once.
func (m *Master) Shutdown() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	ws := append(append([]*remoteWorker(nil), m.workers...), m.pending...)
	m.workers, m.pending = nil, nil
	m.mu.Unlock()
	close(m.done)
	m.we.SetScatterDelegate(nil)
	m.we.SetReportObserver(nil)
	if d, ok := m.we.Mechanism().(reputation.SpMVDelegator); ok {
		d.SetSpMVDelegate(nil)
	}
	if m.cfg.Listener != nil {
		m.cfg.Listener.Close()
	}
	for _, w := range ws {
		w.mu.Lock()
		w.conn.SetDeadline(time.Now().Add(time.Second))
		w.conn.Send(&envelope{Kind: kindShutdown})
		w.mu.Unlock()
		w.conn.Close()
	}
}
