package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/trustnet"
)

// The cluster-loopback shape is epoch-active at a quarter of the population
// and under half the traffic: the master resyncs its worker's replica with a
// full snapshot every epoch, and the snapshot grows with history, so larger
// shapes would spend the run in gob encoding.
const (
	clusterUsers    = 2500
	clusterPerRound = 625
	clusterWarm     = 2
	clusterEpochs   = 6
)

// loopbackMaster builds a cluster master over the in-process loopback
// transport with one worker. It keeps the full gob frame protocol and drops
// kernel TCP; the master blocks while its single worker computes, so two
// cores suffice.
type loopbackMaster struct {
	m          *cluster.Master
	workerDone chan error
}

func openLoopback(sc trustnet.Scenario) (*loopbackMaster, error) {
	ln := cluster.NewLoopbackListener()
	m, err := cluster.NewMaster(sc, cluster.MasterConfig{
		Listener:       ln,
		HeartbeatEvery: -1, // liveness rides on the phases themselves
		PhaseTimeout:   60 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	conn, err := ln.Dial()
	if err != nil {
		m.Shutdown()
		return nil, err
	}
	lm := &loopbackMaster{m: m, workerDone: make(chan error, 1)}
	go func() { lm.workerDone <- cluster.RunWorker(conn, "perfbench-w0") }()
	if err := m.WaitForWorkers(1, 10*time.Second); err != nil {
		lm.release()
		return nil, err
	}
	return lm, nil
}

// release shuts the master down and waits for the worker goroutine to exit.
func (lm *loopbackMaster) release() {
	lm.m.Shutdown()
	<-lm.workerDone
}

func runClusterLoopback(p params) (*report, error) {
	sc := activeScenario("cluster-loopback", p.seed, clusterUsers, clusterPerRound)
	var (
		cur      *loopbackMaster
		snapSize []float64 // encoded snapshot bytes after each traced epoch
	)
	open := func(sc trustnet.Scenario) (*trustnet.Engine, func(), error) {
		lm, err := openLoopback(sc)
		if err != nil {
			return nil, nil, err
		}
		cur = lm
		return lm.m.Engine(), lm.release, nil
	}
	spec := batchSpec{
		sc:      sc,
		warmed:  func(done int, _ trustnet.EpochStats) bool { return done >= clusterWarm },
		maxWarm: clusterWarm,
		epochs:  clusterEpochs,
		// The next epoch's resync ships a snapshot of this size (computed,
		// not observed on the wire).
		afterEpoch: func(eng *trustnet.Engine, _ *episode) {
			snap, err := eng.Snapshot()
			if err != nil {
				return
			}
			var cw countingWriter
			if snap.Encode(&cw) == nil {
				snapSize = append(snapSize, float64(cw))
			}
		},
		check: func(eng *trustnet.Engine, ep *episode) {
			checkDelegation(cur.m, eng, sc, ep, &snapSize)
		},
	}
	eps, err := runBatch(spec, open, p)
	if err != nil {
		return nil, err
	}
	rep := summarize(spec, eps, p.trace)
	if p.trace != nil {
		// The same scenario run locally: the keep-or-delete ratio for the
		// cluster layer, and a digest that must match the cluster's.
		localSpec := spec
		localSpec.afterEpoch, localSpec.check = nil, nil
		local, err := runBatch(localSpec, openLocal, params{seed: p.seed, episodes: 1})
		if err != nil {
			return nil, fmt.Errorf("local twin: %w", err)
		}
		// Episode 0 is untraced and ran on the run's seed, like the twin.
		if local[0].digest != eps[0].digest {
			rep.problem("local twin history digest %s differs from the cluster's %s", local[0].digest, eps[0].digest)
		}
		rep.layer["cluster.overhead_x"] = medianDuration(eps[0].epochs) / medianDuration(local[0].epochs)
	}
	return rep, nil
}

// checkDelegation requires that every scatter chunk and SpMV block range of
// the episode ran on the worker: with one worker each round is one chunk and
// each solver iteration one block range. A shortfall means the master fell
// back to local compute, and counts as failed phases.
func checkDelegation(m *cluster.Master, eng *trustnet.Engine, sc trustnet.Scenario, ep *episode, snapSize *[]float64) {
	hist := eng.History()
	wantScatters := uint64(len(hist) * sc.EpochRounds)
	var wantSpMV uint64
	for _, st := range hist {
		wantSpMV += uint64(st.MechIterations)
	}
	scatters, spmv := m.RemotePhases()
	ep.attempted += int64(wantScatters + wantSpMV)
	if scatters < wantScatters {
		ep.failed += int64(wantScatters - scatters)
	}
	if spmv < wantSpMV {
		ep.failed += int64(wantSpMV - spmv)
	}
	if scatters != wantScatters || spmv != wantSpMV {
		ep.problems = append(ep.problems, fmt.Sprintf("remote phases %d scatter + %d spmv, want %d + %d", scatters, spmv, wantScatters, wantSpMV))
	}
	if n := m.LiveWorkers(); n != 1 {
		ep.problems = append(ep.problems, fmt.Sprintf("%d live workers at the end, want 1", n))
	}
	epochs := float64(len(hist))
	resyncs := float64(m.Resyncs()) / epochs
	ep.layer["cluster.remote_scatters_per_epoch"] = float64(scatters) / epochs
	ep.layer["cluster.remote_spmv_per_epoch"] = float64(spmv) / epochs
	ep.layer["cluster.resyncs_per_epoch"] = resyncs
	if len(*snapSize) > 0 {
		ep.layer["cluster.sync_mb_per_epoch"] = trustnet.Quantile(*snapSize, 0.5) / 1e6 * resyncs
		*snapSize = nil
	}
}

// countingWriter counts the bytes written through it.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
