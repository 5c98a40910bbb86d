package cluster

import (
	"bytes"
	"fmt"

	"repro/internal/reputation"
	"repro/trustnet"
)

// RunWorker registers with the master over conn under the given name, builds
// an engine replica from the streamed scenario spec, and serves phase
// requests until the master sends shutdown (nil return) or the connection
// fails (error return). The replica's own clocks never advance — it only
// ever executes the pure phases the master asks for, against state the
// master syncs — which is exactly why its results are bit-identical to the
// master computing them itself.
func RunWorker(conn Conn, name string) error {
	defer conn.Close()
	if err := conn.Send(&envelope{Kind: kindHello, Hello: &helloMsg{Name: name}}); err != nil {
		return fmt.Errorf("cluster: register: %w", err)
	}
	env, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("cluster: register: %w", err)
	}
	switch env.Kind {
	case kindWelcome:
	case kindError:
		return fmt.Errorf("cluster: master rejected worker %q: %s", name, env.Err.Msg)
	default:
		return fmt.Errorf("cluster: unexpected handshake reply kind %d", env.Kind)
	}
	sc, err := trustnet.ScenarioFromJSON(env.Welcome.Scenario)
	if err != nil {
		return err
	}
	eng, err := sc.NewEngine()
	if err != nil {
		return fmt.Errorf("cluster: build replica: %w", err)
	}
	we := eng.WorkloadEngine()
	mech := we.Mechanism()

	for {
		env, err := conn.Recv()
		if err != nil {
			return fmt.Errorf("cluster: worker %q: %w", name, err)
		}
		switch env.Kind {
		case kindShutdown:
			return nil
		case kindPing:
			if err := conn.Send(&envelope{Kind: kindPong}); err != nil {
				return fmt.Errorf("cluster: worker %q: %w", name, err)
			}
		case kindSync:
			snap, err := trustnet.DecodeSnapshot(bytes.NewReader(env.Sync.Snapshot))
			if err != nil {
				return fmt.Errorf("cluster: worker %q: %w", name, err)
			}
			if err := eng.Restore(snap); err != nil {
				return fmt.Errorf("cluster: worker %q: %w", name, err)
			}
		case kindHonesty:
			h := env.Honesty.Override
			if env.Honesty.HasOverride && h == nil {
				h = []float64{}
			}
			if err := we.SetHonestOverride(h); err != nil {
				return fmt.Errorf("cluster: worker %q: %w", name, err)
			}
		case kindScatter:
			sm := env.Scatter
			pool := sm.Pool
			if sm.HasPool && pool == nil {
				// An empty (but present) active pool decodes to nil; an
				// empty pool and a nil one mean different sampling draws.
				pool = []int{}
			}
			out := we.SimulateChunk(sm.Plans, sm.Scores, sm.Gate, pool, sm.Round)
			if err := conn.Send(&envelope{Kind: kindScatterResult, ScatterRes: &scatterResultMsg{Outcomes: out}}); err != nil {
				return fmt.Errorf("cluster: worker %q: %w", name, err)
			}
		case kindReports:
			// Mirror master-accepted feedback into the replica's mechanism.
			// Gatherer/ledger accounting is master-only state and skipped —
			// simulate never reads it, and syncs overwrite it wholesale.
			if bs, ok := mech.(reputation.BatchSubmitter); ok {
				if err := bs.SubmitBatch(env.Reports.Reports); err != nil {
					return fmt.Errorf("cluster: worker %q: mirror reports: %w", name, err)
				}
			} else {
				for _, r := range env.Reports.Reports {
					if err := mech.Submit(r); err != nil {
						return fmt.Errorf("cluster: worker %q: mirror report: %w", name, err)
					}
				}
			}
		case kindSpMV:
			bs, ok := mech.(reputation.BlockScatterer)
			if !ok {
				return fmt.Errorf("cluster: worker %q: mechanism %q cannot scatter SpMV blocks", name, mech.Name())
			}
			parts := bs.SpMVScatterBlocks(env.SpMV.X, env.SpMV.Lob, env.SpMV.Hib)
			if err := conn.Send(&envelope{Kind: kindSpMVResult, SpMVRes: &spmvResultMsg{Parts: parts}}); err != nil {
				return fmt.Errorf("cluster: worker %q: %w", name, err)
			}
		default:
			return fmt.Errorf("cluster: worker %q: unexpected message kind %d", name, env.Kind)
		}
	}
}
