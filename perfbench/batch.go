package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"repro/trustnet"
)

// activeScenario is the paper's coupled loop at full activity: EigenTrust
// with pre-trusted peers 0-2, a mixed population, and a trust-gated privacy
// policy. EpochRounds is a multiple of RecomputeEvery, so every epoch runs
// the same number of recomputes and the epoch-time distribution has one mode.
func activeScenario(name string, seed uint64, users, perRound int) trustnet.Scenario {
	return trustnet.Scenario{
		Name:                 name,
		Peers:                users,
		Seed:                 seed,
		Mix:                  trustnet.MixOf(map[string]float64{"malicious": 0.2, "selfish": 0.05}, 0, 1, 2),
		Mechanism:            trustnet.MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}},
		Privacy:              &trustnet.PrivacyPolicy{Disclosure: 0.8, TrustGate: 0.1},
		Coupled:              true,
		EpochRounds:          4,
		RecomputeEvery:       2,
		InteractionsPerRound: perRound,
		Shards:               cores,
	}
}

// opener builds the engine an episode drives. The returned release stops
// everything the opener started and waits for it.
type opener func(trustnet.Scenario) (eng *trustnet.Engine, release func(), err error)

func openLocal(sc trustnet.Scenario) (*trustnet.Engine, func(), error) {
	eng, err := sc.NewEngine()
	return eng, func() {}, err
}

// batchSpec is one epoch-bounded batch shape.
type batchSpec struct {
	sc       trustnet.Scenario
	schedule trustnet.Schedule
	// warmed reports whether the engine reached the measured regime after
	// done warm epochs, the last of which produced st.
	warmed  func(done int, st trustnet.EpochStats) bool
	maxWarm int
	epochs  int // measured epochs per episode
	// afterEpoch, when set, runs after every measured epoch of a traced
	// episode, outside the timed interval.
	afterEpoch func(*trustnet.Engine, *episode)
	// check, when set, runs once per episode before the engine is released.
	check func(*trustnet.Engine, *episode)
}

// episode is what one batch episode measured. An episode builds a fresh
// engine, warms it and times a fixed number of epochs, so every episode of a
// run covers the same stretch of history.
type episode struct {
	traced       bool
	seed         uint64
	setup        time.Duration // wall
	setupCPU     time.Duration
	epochs       []time.Duration // wall
	cpu          []time.Duration // process CPU time of each measured epoch
	interactions int
	heap         uint64 // live heap after a forced GC at the end of the window
	digest       string
	measured     []trustnet.EpochStats
	ledger       int
	// Operations beyond the measured epochs (requests, cluster phases), the
	// ones that failed, and failed output checks.
	attempted, failed int64
	problems          []string

	// Traced episodes only.
	plainRounds, computeRounds, tails []time.Duration
	plainObjects, plainBytes          uint64
	plainInteractions                 int
	gcStart, gcEnd                    gcState
	layer                             map[string]float64 // workload-specific extras
}

// runBatch runs the spec's episodes, each on its own seed (see
// params.episodeSeed).
func runBatch(spec batchSpec, open opener, p params) ([]*episode, error) {
	var eps []*episode
	for i := 0; i < p.episodes; i++ {
		sc := spec
		sc.sc.Seed = p.episodeSeed(i)
		ep, err := runEpisode(sc, open, p.episodeTracer(i))
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", i, err)
		}
		eps = append(eps, ep)
	}
	return eps, nil
}

func runEpisode(spec batchSpec, open opener, tr *tracer) (*episode, error) {
	liveHeap() // drop the previous episode before timing set-up
	ep := &episode{traced: tr != nil, seed: spec.sc.Seed, layer: map[string]float64{}}
	root := tr.open("episode", 0)
	defer tr.close(root)

	t0, c0 := time.Now(), cpuTime()
	eng, release, err := open(spec.sc)
	if err != nil {
		return nil, err
	}
	defer release()
	// Round observation is installed only in the traced run; it stays inert
	// until the measured window opens.
	var (
		inWindow       bool
		mark           time.Time
		markObj, markB uint64
		epochSpan      int
	)
	opts := []trustnet.SessionOption{trustnet.WithSchedule(spec.schedule)}
	if tr != nil {
		opts = append(opts, trustnet.OnRound(func(rs trustnet.RoundStats) {
			if !inWindow {
				return
			}
			now := time.Now()
			obj, b := allocCounters()
			if (rs.Round+1)%spec.sc.RecomputeEvery == 0 {
				ep.computeRounds = append(ep.computeRounds, now.Sub(mark))
				tr.add("workload.round.recompute", epochSpan, mark, now)
			} else {
				ep.plainRounds = append(ep.plainRounds, now.Sub(mark))
				ep.plainObjects += obj - markObj
				ep.plainBytes += b - markB
				ep.plainInteractions += rs.Interactions
				tr.add("workload.round", epochSpan, mark, now)
			}
			mark, markObj, markB = now, obj, b
		}))
	}
	s, err := eng.Session(context.Background(), opts...)
	if err != nil {
		return nil, err
	}
	for done := 0; ; {
		st, err := s.Next()
		if err != nil {
			return nil, fmt.Errorf("warm epoch %d: %w", done, err)
		}
		done++
		if spec.warmed(done, st) {
			break
		}
		if done >= spec.maxWarm {
			return nil, fmt.Errorf("not warmed after %d epochs", done)
		}
	}
	ep.setup, ep.setupCPU = time.Since(t0), cpuTime()-c0
	tr.add("setup", root, t0, t0.Add(ep.setup))

	if tr != nil {
		liveHeap() // the traced window starts from a collected heap
		ep.gcStart = readGC()
	}
	before := eng.WorkloadEngine().CumulativeStats().Interactions
	inWindow = true
	for i := 0; i < spec.epochs; i++ {
		epochSpan = tr.open("session.next", root)
		mark = time.Now()
		if tr != nil {
			markObj, markB = allocCounters()
		}
		start, cstart := mark, cpuTime()
		st, err := s.Next()
		end, cend := time.Now(), cpuTime()
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", i, err)
		}
		ep.epochs = append(ep.epochs, end.Sub(start))
		ep.cpu = append(ep.cpu, cend-cstart)
		ep.measured = append(ep.measured, st)
		if tr != nil {
			ep.tails = append(ep.tails, end.Sub(mark))
			tr.add("core.tail", epochSpan, mark, end)
			tr.close(epochSpan)
			if spec.afterEpoch != nil {
				spec.afterEpoch(eng, ep)
			}
		}
	}
	inWindow = false
	ep.interactions = eng.WorkloadEngine().CumulativeStats().Interactions - before
	if tr != nil {
		ep.gcEnd = readGC()
	}
	ep.heap = liveHeap()
	ep.ledger = eng.Ledger().Len()
	ep.digest = historyDigest(eng.History())
	if spec.check != nil {
		spec.check(eng, ep)
	}
	return ep, nil
}

// historyDigest hashes the JSON form of an epoch history. Equal seeds must
// give equal digests.
func historyDigest(hist []trustnet.EpochStats) string {
	h := fnv.New64a()
	for _, st := range hist {
		b, err := json.Marshal(st)
		if err != nil {
			// NaN or Inf in the stats: hash the Go form instead so the
			// digest still pins the bits.
			b = []byte(fmt.Sprintf("%#v", st))
		}
		h.Write(b)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// summarize turns a run's episodes into its report: end-to-end metrics from
// every episode, per-layer metrics from the traced ones and their spans.
//
// The end-to-end timings are process CPU time, not wall time: on the shared
// reference VM the host stole up to a third of the vCPU time during runs,
// which swung wall-time medians by 30% between identical runs while CPU time
// moved by about 5%. Wall-time figures are kept as per-layer diagnostics.
func summarize(spec batchSpec, eps []*episode, tr *tracer) *report {
	rep := &report{e2e: map[string]float64{}, layer: map[string]float64{}}
	var (
		setups, wallSetups, all, wall, plain, traced []time.Duration
		heaps                                        []float64
		interactions                                 int
	)
	digestOf := map[uint64]string{}
	for i, ep := range eps {
		rep.digests = append(rep.digests, fmt.Sprintf("seed %d: %s", ep.seed, ep.digest))
		if d, ok := digestOf[ep.seed]; ok && d != ep.digest {
			rep.problem("episode %d history digest %s differs from an earlier episode on seed %d (%s)", i, ep.digest, ep.seed, d)
		}
		digestOf[ep.seed] = ep.digest
		rep.attempted += int64(len(ep.epochs)) + ep.attempted
		rep.failed += ep.failed
		for _, pr := range ep.problems {
			rep.problem("episode %d: %s", i, pr)
		}
		setups = append(setups, ep.setupCPU)
		wallSetups = append(wallSetups, ep.setup)
		all = append(all, ep.cpu...)
		wall = append(wall, ep.epochs...)
		heaps = append(heaps, float64(ep.heap)/1e6)
		interactions += ep.interactions
		if ep.traced {
			traced = append(traced, ep.cpu...)
		} else {
			plain = append(plain, ep.cpu...)
		}
	}
	rep.e2e["setup_s"] = medianDuration(setups) / 1e3
	rep.e2e["epoch_cpu_ms.p50"], rep.e2e["epoch_cpu_ms.tail"] = latency(all)
	rep.e2e["interactions_per_cpu_s"] = float64(interactions) / sumDurations(all).Seconds()
	rep.e2e["live_heap_mb"] = trustnet.Quantile(heaps, 0.5)
	if tr != nil {
		rep.layer = layerMetrics(spec, eps)
		rep.layer["trace.overhead_pct"] = (medianDuration(traced)/medianDuration(plain) - 1) * 100
		addSelfTimes(rep.layer, tr, len(traced))
		rep.layer["wall.setup_s"] = medianDuration(wallSetups) / 1e3
		rep.layer["wall.epoch_ms.p50"], rep.layer["wall.epoch_ms.tail"] = latency(wall)
		rep.layer["wall.interactions_per_s"] = float64(interactions) / sumDurations(wall).Seconds()
	}
	return rep
}

// layerMetrics derives the per-layer metrics from the traced episodes.
func layerMetrics(spec batchSpec, eps []*episode) map[string]float64 {
	out := map[string]float64{}
	var (
		plainRounds, computeRounds, tails []time.Duration
		objects, bytes                    uint64
		plainInter, inter, epochs, n      int
		iters, settled, dirty             float64
		ledger, retained                  float64
		cycles, pause                     float64
	)
	users := float64(spec.sc.Peers)
	for _, ep := range eps {
		if !ep.traced {
			continue
		}
		n++
		plainRounds = append(plainRounds, ep.plainRounds...)
		computeRounds = append(computeRounds, ep.computeRounds...)
		tails = append(tails, ep.tails...)
		objects += ep.plainObjects
		bytes += ep.plainBytes
		plainInter += ep.plainInteractions
		inter += ep.interactions
		epochs += len(ep.epochs)
		for _, st := range ep.measured {
			iters += float64(st.MechIterations)
			settled += float64(st.SettledUsers) / users
			dirty += float64(st.DirtyFacets) / users
		}
		ledger += float64(ep.ledger)
		retained += float64(ep.heap) - float64(ep.gcStart.heap)
		cycles += float64(ep.gcEnd.cycles - ep.gcStart.cycles)
		pause += float64(ep.gcEnd.pauseNs-ep.gcStart.pauseNs) / 1e6
		for k, v := range ep.layer {
			out[k] += v
		}
	}
	for k := range out {
		out[k] /= float64(n)
	}
	if len(plainRounds) > 0 {
		out["workload.round_ms.p50"] = medianDuration(plainRounds)
	}
	if plainInter > 0 {
		out["workload.allocs_per_interaction"] = float64(objects) / float64(plainInter)
		out["workload.alloc_bytes_per_interaction"] = float64(bytes) / float64(plainInter)
	}
	if len(computeRounds) > 0 {
		out["reputation.compute_ms"] = medianDuration(computeRounds) - medianDuration(plainRounds)
	}
	fe := float64(epochs)
	out["reputation.iterations_per_epoch"] = iters / fe
	if len(tails) > 0 {
		out["core.tail_ms.p50"] = medianDuration(tails)
	}
	out["core.settled_share"] = settled / fe
	out["core.dirty_share"] = dirty / fe
	out["privacy.ledger_events"] = ledger / float64(n)
	out["heap.retained_bytes_per_interaction"] = retained / float64(inter)
	out["gc.cycles_per_epoch"] = cycles / fe
	out["gc.pause_ms_per_epoch"] = pause / fe
	return out
}

// addSelfTimes reports the self time of the epoch, round and tail spans per
// traced epoch.
func addSelfTimes(layer map[string]float64, tr *tracer, tracedEpochs int) {
	self := tr.selfTimes()
	per := func(names ...string) float64 {
		var t time.Duration
		for _, n := range names {
			t += self[n]
		}
		return float64(t) / float64(time.Millisecond) / float64(tracedEpochs)
	}
	layer["trace.epoch_self_ms_per_epoch"] = per("session.next", "server.advance")
	layer["trace.round_self_ms_per_epoch"] = per("workload.round", "workload.round.recompute")
	layer["trace.tail_self_ms_per_epoch"] = per("core.tail")
}

func runEpochActive(p params) (*report, error) {
	spec := batchSpec{
		sc:      activeScenario("epoch-active", p.seed, activeUsers, activePerRound),
		warmed:  func(done int, _ trustnet.EpochStats) bool { return done >= activeWarm },
		maxWarm: activeWarm,
		epochs:  activeEpochs,
	}
	eps, err := runBatch(spec, openLocal, p)
	if err != nil {
		return nil, err
	}
	return summarize(spec, eps, p.trace), nil
}

// Workload shapes; see perfbench/README.md for why each is sized as it is.
const (
	activeUsers    = 20000
	activePerRound = 2500
	activeWarm     = 3
	activeEpochs   = 8

	quiescentUsers    = 100000
	quiescentActive   = 10000
	quiescentPerRound = 2000
	quiescentMaxWarm  = 40
	quiescentEpochs   = 20
)

func runEpochQuiescent(p params) (*report, error) {
	sc := activeScenario("epoch-quiescent", p.seed, quiescentUsers, quiescentPerRound)
	sc.Mechanism = trustnet.MechanismSpec{Kind: "none"}
	leave := make([]int, 0, quiescentUsers-quiescentActive)
	for u := quiescentActive; u < quiescentUsers; u++ {
		leave = append(leave, u)
	}
	spec := batchSpec{
		sc:       sc,
		schedule: trustnet.Schedule{}.At(0, trustnet.LeaveWave{Users: leave}),
		// Warm until every departed user sits at its trust fixed point.
		warmed: func(_ int, st trustnet.EpochStats) bool {
			return st.SettledUsers >= quiescentUsers-quiescentActive
		},
		maxWarm: quiescentMaxWarm,
		epochs:  quiescentEpochs,
	}
	eps, err := runBatch(spec, openLocal, p)
	if err != nil {
		return nil, err
	}
	return summarize(spec, eps, p.trace), nil
}
