// Command trustsim runs one configurable scenario of the three-facet trust
// model and prints the facet metrics, the trust towards the system, and the
// coupled-dynamics trajectory.
//
// Example:
//
//	trustsim -peers 200 -malicious 0.3 -mechanism eigentrust -disclosure 0.8 -epochs 10
//
// Scenarios also run by name (the registered built-ins: baseline,
// quickstart, filesharing, socialfeed, churnstorm, tradeoff) or from a
// declarative JSON spec file, schedule and all:
//
//	trustsim -scenario churnstorm
//	trustsim -scenario my-study.json
//
// Long runs can be checkpointed and resumed without perturbing a single
// draw — the resumed trajectory is bit-for-bit the uninterrupted one:
//
//	trustsim -epochs 5 -checkpoint run.snap
//	trustsim -epochs 5 -resume run.snap
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/trustnet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trustsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("trustsim", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		scenarioRef = fs.String("scenario", "", "run a registered scenario by name, or a JSON spec file (overrides the flag-built scenario)")

		peers      = fs.Int("peers", 200, "population size")
		malicious  = fs.Float64("malicious", 0.3, "malicious fraction [0,1]")
		selfish    = fs.Float64("selfish", 0, "selfish free-rider fraction [0,1]")
		mechanism  = fs.String("mechanism", "eigentrust", "reputation mechanism: eigentrust|powertrust|powertrust-plain|trustme|anonrep|none")
		disclosure = fs.Float64("disclosure", 0.8, "base disclosure level (0,1]")
		gate       = fs.Float64("gate", 0, "privacy trust-gate strictness [0,1)")
		epochs     = fs.Int("epochs", 10, "coupling epochs")
		rounds     = fs.Int("rounds", 8, "workload rounds per epoch")
		seed       = fs.Uint64("seed", 1, "random seed")
		ctxName    = fs.String("context", "balanced", "weight context: balanced|privacy|performance|marketplace")
		coupled    = fs.Bool("coupled", true, "enable the §3 feedback loops")
		shards     = fs.Int("shards", runtime.GOMAXPROCS(0), "parallel epoch shards (identical results for any count)")
		checkpoint = fs.String("checkpoint", "", "write an engine snapshot to this file after the run")
		resume     = fs.String("resume", "", "restore the engine from this snapshot before running (scenario flags must match the checkpointed run)")
		history    = fs.String("history", "", "write the epoch history to this file as JSON (cluster-equivalence diffing)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file after the run (go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	out := output{checkpoint: *checkpoint, resume: *resume, history: *history}
	if *scenarioRef != "" {
		sc, err := trustnet.LoadScenario(*scenarioRef)
		if err != nil {
			return err
		}
		if sc.Epochs <= 0 {
			return fmt.Errorf("trustsim: scenario %q has no epochs to run (set Epochs > 0)", sc.Name)
		}
		// Shards only reschedule work, so the flag may apply without
		// touching the result.
		if sc.Shards == 0 && *shards > 0 {
			sc.Shards = *shards
		}
		out.title = func(eng *trustnet.Engine) string {
			return fmt.Sprintf("trustsim scenario %q: %d peers, %s, %d epochs",
				sc.Name, eng.Peers(), eng.Mechanism().Name(), sc.Epochs)
		}
		return runScenario(sc, out, w)
	}

	// A flag is explicit: unlike a Scenario field, a zero count or an
	// empty name does not mean "default".
	if *peers == 0 || *rounds == 0 || *shards == 0 || *mechanism == "" || *ctxName == "" {
		return fmt.Errorf("-peers, -rounds and -shards must be nonzero, -mechanism and -context non-empty")
	}
	if *malicious+*selfish > 1 {
		return fmt.Errorf("malicious + selfish fractions exceed 1")
	}
	sc := trustnet.Scenario{
		Peers: *peers,
		Seed:  *seed,
		Mix: &trustnet.MixSpec{
			Fractions: map[string]float64{
				"honest":    1 - *malicious - *selfish,
				"malicious": *malicious,
				"selfish":   *selfish,
			},
			ForceHonest: []int{0, 1, 2},
		},
		Mechanism:      trustnet.MechanismSpec{Kind: *mechanism, Pretrusted: []int{0, 1, 2}},
		Privacy:        &trustnet.PrivacyPolicy{Disclosure: *disclosure, TrustGate: *gate},
		Context:        *ctxName,
		Coupled:        *coupled,
		EpochRounds:    *rounds,
		Epochs:         *epochs,
		RecomputeEvery: 2,
		Shards:         *shards,
	}
	out.title = func(eng *trustnet.Engine) string {
		ctx, _ := trustnet.ParseAppContext(*ctxName) // the engine was built, so the name resolves
		return fmt.Sprintf("trustsim: %d peers, %.0f%% malicious, %s, context %s",
			*peers, *malicious*100, eng.Mechanism().Name(), ctx)
	}
	// A resumed flag run reports its whole trajectory, so a checkpointed
	// run continued with -resume prints what one uninterrupted run prints.
	out.fromStart = true
	return runScenario(sc, out, w)
}

// startProfiles begins CPU profiling and/or arranges a heap profile write,
// per the -cpuprofile/-memprofile flags. The returned stop function is safe
// to call unconditionally; profile-file errors after the run are reported to
// stderr because the run itself already succeeded.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "trustsim: cpuprofile:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "trustsim: memprofile:", err)
				return
			}
			runtime.GC() // up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "trustsim: memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "trustsim: memprofile:", err)
			}
		}
	}, nil
}

// output is what runScenario writes besides the report: the files named by
// -checkpoint, -resume and -history, and the report's shape.
type output struct {
	checkpoint, resume, history string
	// title heads the trajectory table.
	title func(*trustnet.Engine) string
	// fromStart reports every recorded epoch, restored ones included;
	// otherwise the report covers only the epochs this run drove.
	fromStart bool
}

// runScenario runs a scenario end to end — schedule included — and prints
// its trajectory report. -checkpoint/-resume work here: -resume restores
// the engine before running (the scenario then budgets sc.Epochs *further*
// epochs, with schedule entries keyed by absolute epoch index so the
// remaining ones still fire), which is how a trustnetd /v1/snapshot
// download is continued offline.
func runScenario(sc trustnet.Scenario, out output, w io.Writer) error {
	eng, err := sc.NewEngine()
	if err != nil {
		return err
	}
	if out.resume != "" {
		if err := eng.RestoreFromFile(out.resume); err != nil {
			return err
		}
	}
	prior := len(eng.History())
	s, err := eng.Session(context.Background(), trustnet.WithMaxEpochs(sc.Epochs), trustnet.WithSchedule(sc.Schedule))
	if err != nil {
		return err
	}
	for _, err := range s.Epochs() {
		if err != nil {
			return err
		}
	}
	hist := eng.History()
	if out.checkpoint != "" {
		if err := checkpointEngine(eng, out.checkpoint); err != nil {
			return err
		}
	}
	if out.history != "" {
		if err := writeHistory(hist, out.history); err != nil {
			return err
		}
	}
	if !out.fromStart {
		hist = hist[prior:]
	}
	if sc.Description != "" {
		fmt.Fprintf(w, "%s\n", sc.Description)
	}
	tab := trustnet.NewTable(out.title(eng),
		"epoch", "trust", "satisfaction", "rep-power", "privacy", "disclosure", "honesty", "bad-rate")
	for _, e := range hist {
		tab.AddRow(e.Epoch, e.Trust, e.Satisfaction, e.Reputation, e.Privacy, e.Disclosure, e.Honesty, e.BadRate)
	}
	tab.Render(w)
	fmt.Fprintf(w, "\nfinal global trust: %.4f\n", eng.GlobalTrust())
	fmt.Fprintf(w, "system trusted (median >= 0.5): %v; strictly trusted (p10 >= 0.5): %v\n",
		eng.SystemTrusted(0.5, 0.5), eng.SystemTrusted(0.5, 0.1))
	sum := eng.Summary()
	fmt.Fprintf(w, "reputation rank accuracy (tau): %.4f; feedback share rate: %.4f\n", sum.Tau, sum.ShareRate)
	return nil
}

// checkpointEngine snapshots the engine's full state to a file; a later run
// with identical scenario flags and -resume continues bit-for-bit as if
// never interrupted.
func checkpointEngine(eng *trustnet.Engine, path string) error {
	snap, err := eng.Snapshot()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := snap.Encode(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// writeHistory serializes the epoch history to a file as JSON — the
// artifact the cluster-smoke CI job diffs byte-for-byte between
// single-process and master/worker runs of the same scenario. JSON, not
// gob: JSON floats use the shortest representation that round-trips, so
// byte equality proves bit equality — while gob assigns wire type ids from
// a process-global registry, so two binaries that built other gob types
// first emit different bytes for identical values.
func writeHistory(hist []trustnet.EpochStats, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(hist); err != nil {
		f.Close()
		return fmt.Errorf("history: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	return nil
}
