package trustnet

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"

	"repro/internal/adversary"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Agg summarizes one aggregated sample (across seed replications): count,
// mean, sample stddev, min, median, max.
type Agg = metrics.Agg

// AxisValue is one coordinate of a sweep cell: the parameter it sets and
// the value it took. Label carries a human name for non-numeric axes (the
// mechanism axis); numeric axes leave it empty.
type AxisValue struct {
	Param string  `json:"param"`
	Value float64 `json:"value"`
	Label string  `json:"label,omitempty"`
}

// text renders the coordinate value for tables and CSV cells.
func (av AxisValue) text() string {
	if av.Label != "" {
		return av.Label
	}
	return strconv.FormatFloat(av.Value, 'g', -1, 64)
}

// Coord locates one cell of the sweep matrix: one AxisValue per axis, in
// axis declaration order.
type Coord []AxisValue

// Get returns the value of the named coordinate (NaN when absent).
func (c Coord) Get(param string) float64 {
	for _, av := range c {
		if av.Param == param {
			return av.Value
		}
	}
	return math.NaN()
}

func (c Coord) String() string {
	s := ""
	for i, av := range c {
		if i > 0 {
			s += " "
		}
		s += av.Param + "=" + av.text()
	}
	return s
}

// Axis is one serializable dimension of a sweep: either a set of value
// tuples applied to named scenario parameters, or a set of mechanism specs.
type Axis struct {
	// Params names the scenario parameters this axis sets; Values holds
	// one tuple per axis point (each tuple one value per parameter).
	Params []string    `json:"params,omitempty"`
	Values [][]float64 `json:"values,omitempty"`
	// Mechanisms makes this a mechanism axis: each point swaps the
	// scenario's mechanism spec.
	Mechanisms []MechanismSpec `json:"mechanisms,omitempty"`
}

// size returns the number of points along the axis.
func (a Axis) size() int {
	if len(a.Mechanisms) > 0 {
		return len(a.Mechanisms)
	}
	return len(a.Values)
}

// apply sets the axis's i-th point on sc and returns its coordinate.
func (a Axis) apply(sc *Scenario, i int) (Coord, error) {
	if len(a.Mechanisms) > 0 {
		spec := a.Mechanisms[i]
		spec.Pretrusted = append([]int(nil), spec.Pretrusted...)
		sc.Mechanism = spec
		kind := spec.Kind
		if kind == "" {
			kind = "eigentrust"
		}
		return Coord{{Param: "mechanism", Value: float64(i), Label: kind}}, nil
	}
	coord := make(Coord, 0, len(a.Params))
	for j, param := range a.Params {
		if err := applyParam(sc, param, a.Values[i][j]); err != nil {
			return nil, err
		}
		coord = append(coord, AxisValue{Param: param, Value: a.Values[i][j]})
	}
	return coord, nil
}

// validate checks the axis shape and applies its first point to a throwaway
// copy of base, so an unknown parameter or a malformed tuple fails at
// declaration time, not run N of the matrix.
func (a Axis) validate(base Scenario) error {
	if len(a.Mechanisms) > 0 {
		if len(a.Params) > 0 || len(a.Values) > 0 {
			return fmt.Errorf("trustnet: axis mixes mechanisms with parameter values")
		}
		for _, spec := range a.Mechanisms {
			if _, err := spec.kind(); err != nil {
				return err
			}
		}
		return nil
	}
	if len(a.Params) == 0 {
		return fmt.Errorf("trustnet: axis with no parameters")
	}
	if len(a.Values) == 0 {
		return fmt.Errorf("trustnet: axis %v with no values", a.Params)
	}
	for _, tuple := range a.Values {
		if len(tuple) != len(a.Params) {
			return fmt.Errorf("trustnet: axis %v tuple %v has %d values, want %d",
				a.Params, tuple, len(tuple), len(a.Params))
		}
	}
	scratch := base.clone()
	if _, err := a.apply(&scratch, 0); err != nil {
		return err
	}
	return nil
}

// ensurePrivacy materializes the scenario's privacy policy so an axis can
// set one of its fields.
func ensurePrivacy(sc *Scenario) *PrivacyPolicy {
	if sc.Privacy == nil {
		p := DefaultPrivacyPolicy()
		sc.Privacy = &p
	}
	return sc.Privacy
}

// intParam converts an axis value to an int, rejecting non-integral values
// so a typo'd 0.5 on an integer knob cannot silently truncate.
func intParam(param string, v float64) (int, error) {
	if v != math.Trunc(v) {
		return 0, fmt.Errorf("trustnet: parameter %q needs an integer value, got %v", param, v)
	}
	return int(v), nil
}

// applyParam sets one named scenario parameter. The vocabulary covers the
// settable configuration of §4 (disclosure, trust gate), the §3 coupling
// knobs, the workload shape, the mechanism parameters, and any adversary
// class name (which sets that class's population fraction, with the honest
// class absorbing the remainder).
func applyParam(sc *Scenario, param string, v float64) error {
	switch param {
	case "disclosure":
		ensurePrivacy(sc).Disclosure = v
	case "gate", "trustgate":
		ensurePrivacy(sc).TrustGate = v
	case "exposurescale":
		ensurePrivacy(sc).ExposureScale = v
	case "coupling":
		sc.Coupled = v != 0
	case "inertia":
		sc.Inertia = floatPtr(v)
	case "basehonesty":
		sc.BaseHonesty = floatPtr(v)
	case "memory":
		sc.Satisfaction = &SatisfactionModel{Memory: v}
	case "activityskew":
		sc.ActivitySkew = v
	case "granularity":
		sc.Mechanism.Granularity = v
	case "noise":
		sc.Mechanism.Noise = v
	case "priorstrength":
		sc.Mechanism.PriorStrength = v
	case "alpha":
		sc.Mechanism.Alpha = v
	case "epsilon":
		sc.Mechanism.Epsilon = v
	case "peers", "epochrounds", "epochs", "recomputeevery", "candidatesize",
		"interactionsperround", "graphparam", "shards":
		n, err := intParam(param, v)
		if err != nil {
			return err
		}
		switch param {
		case "peers":
			sc.Peers = n
		case "epochrounds":
			sc.EpochRounds = n
		case "epochs":
			sc.Epochs = n
		case "recomputeevery":
			sc.RecomputeEvery = n
		case "candidatesize":
			sc.CandidateSize = n
		case "interactionsperround":
			sc.InteractionsPerRound = n
		case "graphparam":
			if sc.Graph == nil {
				return fmt.Errorf("trustnet: parameter %q needs the scenario to select a graph", param)
			}
			sc.Graph.Param = n
		case "shards":
			sc.Shards = n
		}
	default:
		cls, ok := adversary.ClassNamed(param)
		if !ok || cls == Honest {
			return fmt.Errorf("trustnet: unknown sweep parameter %q", param)
		}
		return setClassFraction(sc, param, v)
	}
	return nil
}

// setClassFraction sets one adversary class's population fraction; the
// honest class absorbs the remainder.
func setClassFraction(sc *Scenario, class string, v float64) error {
	if !(0 <= v && v <= 1) {
		return fmt.Errorf("trustnet: class fraction %s=%v out of [0,1]", class, v)
	}
	if sc.Mix == nil {
		sc.Mix = &MixSpec{}
	}
	if sc.Mix.Fractions == nil {
		sc.Mix.Fractions = map[string]float64{}
	}
	sc.Mix.Fractions[class] = v
	rest := 1.0
	// Fold in name order: a float sum depends on its order.
	for _, name := range slices.Sorted(maps.Keys(sc.Mix.Fractions)) {
		if name != "honest" {
			rest -= sc.Mix.Fractions[name]
		}
	}
	if rest < -1e-9 {
		return fmt.Errorf("trustnet: class fractions exceed 1 after %s=%v", class, v)
	}
	if rest < 0 {
		rest = 0
	}
	sc.Mix.Fractions["honest"] = rest
	return nil
}

// ExperimentSpec is the serializable description of a sweep: the base
// scenario, the parameter axes, the seed replications, and the epoch
// budget. A SweepResult embeds the spec that produced it, so a result file
// is self-describing.
type ExperimentSpec struct {
	Base   Scenario `json:"base"`
	Axes   []Axis   `json:"axes,omitempty"`
	Seeds  []uint64 `json:"seeds,omitempty"`
	Epochs int      `json:"epochs,omitempty"`
}

// ObserveFunc extracts extra per-run metrics from the finished engine. It
// is invoked concurrently from the sweep's worker pool, one call per run:
// read the engine, fill the returned map, and touch nothing shared.
type ObserveFunc func(eng *Engine) map[string]float64

// Experiment is the batch orchestrator of the §4 many-run studies: it
// expands a base Scenario over parameter axes (Vary/VaryTuples/
// VaryMechanism) and seed replications (Seeds/SeedList), executes the run
// matrix on a bounded worker pool under the deterministic-fold discipline
// (equal seeds ⇒ bit-for-bit equal SweepResults at any parallelism), and
// aggregates per-epoch mean/stddev/quantiles per cell.
//
//	res, err := trustnet.NewExperiment(base).
//		Vary("disclosure", 0, 0.25, 0.5, 0.75, 1).
//		Vary("gate", 0, 0.3).
//		Seeds(5).
//		Epochs(10).
//		Run(ctx)
//
// Builder errors stick: the first one is reported by Run.
type Experiment struct {
	spec    ExperimentSpec
	workers int
	observe ObserveFunc
	err     error
}

// NewExperiment starts a sweep over a base scenario.
func NewExperiment(base Scenario) *Experiment {
	return &Experiment{spec: ExperimentSpec{Base: base.clone()}}
}

func (e *Experiment) fail(err error) *Experiment {
	if e.err == nil {
		e.err = err
	}
	return e
}

func (e *Experiment) addAxis(a Axis) *Experiment {
	if err := a.validate(e.spec.Base); err != nil {
		return e.fail(err)
	}
	e.spec.Axes = append(e.spec.Axes, a)
	return e
}

// Vary adds a one-parameter axis: the sweep runs every listed value.
func (e *Experiment) Vary(param string, values ...float64) *Experiment {
	tuples := make([][]float64, len(values))
	for i, v := range values {
		tuples[i] = []float64{v}
	}
	return e.addAxis(Axis{Params: []string{param}, Values: tuples})
}

// VaryTuples adds a multi-parameter axis: each tuple sets all named
// parameters together (one axis point), for jointly-varied settings that
// are not a cross product.
func (e *Experiment) VaryTuples(params []string, tuples ...[]float64) *Experiment {
	return e.addAxis(Axis{Params: params, Values: tuples})
}

// VaryMechanism adds a mechanism axis: each spec swaps the scenario's
// reputation mechanism.
func (e *Experiment) VaryMechanism(specs ...MechanismSpec) *Experiment {
	return e.addAxis(Axis{Mechanisms: specs})
}

// Seeds replicates every cell under n seeds: base.Seed, base.Seed+1, ...
func (e *Experiment) Seeds(n int) *Experiment {
	if n < 1 {
		return e.fail(fmt.Errorf("trustnet: seed replication count must be positive, got %d", n))
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = e.spec.Base.Seed + uint64(i)
	}
	e.spec.Seeds = seeds
	return e
}

// SeedList replicates every cell under the explicit seed list.
func (e *Experiment) SeedList(seeds ...uint64) *Experiment {
	if len(seeds) == 0 {
		return e.fail(fmt.Errorf("trustnet: empty seed list"))
	}
	e.spec.Seeds = append([]uint64(nil), seeds...)
	return e
}

// Epochs sets how many coupling epochs every run drives, overriding the
// base scenario's Epochs.
func (e *Experiment) Epochs(n int) *Experiment {
	if n < 1 {
		return e.fail(fmt.Errorf("trustnet: sweep epochs must be positive, got %d", n))
	}
	e.spec.Epochs = n
	return e
}

// Workers bounds the worker pool executing the run matrix (default: the
// base scenario's Workers, else GOMAXPROCS). The SweepResult is identical
// for every pool size.
func (e *Experiment) Workers(n int) *Experiment {
	if n < 1 {
		return e.fail(fmt.Errorf("trustnet: sweep workers must be positive, got %d", n))
	}
	e.workers = n
	return e
}

// Observe registers a per-run metric extractor invoked after each run
// completes; the returned values aggregate per cell like the built-in
// metrics.
func (e *Experiment) Observe(fn ObserveFunc) *Experiment {
	if fn == nil {
		return e.fail(fmt.Errorf("trustnet: nil observe function"))
	}
	e.observe = fn
	return e
}

// Spec returns the serializable description of the sweep as configured.
func (e *Experiment) Spec() ExperimentSpec {
	return e.spec
}

// Runs returns the size of the expanded run matrix (cells × seeds).
func (e *Experiment) Runs() int {
	cells := 1
	for _, a := range e.spec.Axes {
		cells *= a.size()
	}
	seeds := len(e.spec.Seeds)
	if seeds == 0 {
		seeds = 1
	}
	return cells * seeds
}

// RunResult is one executed run of the matrix.
type RunResult struct {
	Coord Coord  `json:"coord,omitempty"`
	Seed  uint64 `json:"seed"`
	// History is the run's epoch trajectory.
	History []EpochStats `json:"history,omitempty"`
	// Summary is the workload-level summary (bad-service rates, τ, share
	// rate).
	Summary Summary `json:"summary"`
	// Global holds the measured global facets at the end of the run, and
	// Trust the generic metric Φ over them under the scenario's weights.
	Global Facets  `json:"global"`
	Trust  float64 `json:"trust"`
	// Extra carries Observe-collected metrics.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// EpochAgg aggregates one epoch's stats across the cell's seed
// replications.
type EpochAgg struct {
	Epoch        int `json:"epoch"`
	Trust        Agg `json:"trust"`
	Satisfaction Agg `json:"satisfaction"`
	Reputation   Agg `json:"reputation"`
	Privacy      Agg `json:"privacy"`
	Disclosure   Agg `json:"disclosure"`
	Honesty      Agg `json:"honesty"`
	BadRate      Agg `json:"bad_rate"`
	Tau          Agg `json:"tau"`
	Community    Agg `json:"community"`
}

// CellResult aggregates one cell of the sweep matrix over its seed
// replications.
type CellResult struct {
	Coord Coord `json:"coord,omitempty"`
	// Runs holds the individual replications, in seed order.
	Runs []RunResult `json:"runs,omitempty"`
	// Epochs is the per-epoch aggregation across replications; Final is
	// its last entry (nil when no run recorded history).
	Epochs []EpochAgg `json:"epochs,omitempty"`
	Final  *EpochAgg  `json:"final,omitempty"`
	// Trust aggregates the runs' combined metric Φ; Satisfaction /
	// Reputation / Privacy aggregate the measured global facets.
	Trust        Agg            `json:"trust"`
	Satisfaction Agg            `json:"satisfaction"`
	Reputation   Agg            `json:"reputation"`
	Privacy      Agg            `json:"privacy"`
	Extra        map[string]Agg `json:"extra,omitempty"`
}

// SweepResult is the typed outcome of an Experiment: the spec that
// produced it and one aggregated CellResult per matrix cell, in row-major
// axis order (first axis outermost).
type SweepResult struct {
	Spec  ExperimentSpec `json:"spec"`
	Cells []CellResult   `json:"cells"`
}

// At returns the cell at the given per-axis indices (row-major).
func (r *SweepResult) At(idx ...int) *CellResult {
	if len(idx) != len(r.Spec.Axes) {
		panic(fmt.Sprintf("trustnet: SweepResult.At got %d indices for %d axes", len(idx), len(r.Spec.Axes)))
	}
	flat := 0
	for i, a := range r.Spec.Axes {
		n := a.size()
		if idx[i] < 0 || idx[i] >= n {
			panic(fmt.Sprintf("trustnet: SweepResult.At index %d out of range [0,%d) on axis %d", idx[i], n, i))
		}
		flat = flat*n + idx[i]
	}
	return &r.Cells[flat]
}

// Run executes the sweep matrix and aggregates it. The worker pool feeds
// runs in matrix order and folds results by index, so the SweepResult —
// including its JSON encoding — is byte-for-byte identical for every
// worker count; ctx cancels between runs.
func (e *Experiment) Run(ctx context.Context) (*SweepResult, error) {
	if e.err != nil {
		return nil, e.err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	spec := e.spec
	numCells := 1
	for _, a := range spec.Axes {
		if a.size() == 0 {
			return nil, fmt.Errorf("trustnet: sweep axis with no points")
		}
		numCells *= a.size()
	}
	seeds := spec.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{spec.Base.Seed}
	}
	epochs := spec.Epochs
	if epochs == 0 {
		epochs = spec.Base.Epochs
	}
	axesSetEpochs := false
	for _, a := range spec.Axes {
		for _, p := range a.Params {
			if p == "epochs" {
				axesSetEpochs = true
			}
		}
	}
	if epochs <= 0 && !axesSetEpochs {
		return nil, fmt.Errorf("trustnet: sweep has no epoch budget: set the scenario's Epochs or call Experiment.Epochs")
	}
	workers := e.workers
	if workers == 0 {
		workers = spec.Base.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	n := numCells * len(seeds)
	runs := make([]RunResult, n)
	err := sim.RunIndexed(ctx, workers, n, func(i int) error {
		cell, seedIdx := i/len(seeds), i%len(seeds)
		sc := spec.Base.clone()
		// The Epochs() override applies before the axes, so an "epochs"
		// axis point still wins for its own cell.
		if epochs > 0 {
			sc.Epochs = epochs
		}
		coord, err := applyCell(&sc, spec.Axes, cell)
		if err != nil {
			return err
		}
		if sc.Epochs <= 0 {
			return fmt.Errorf("trustnet: sweep cell [%s] has no epoch budget", coord)
		}
		sc.Seed = seeds[seedIdx]
		rr, err := e.runOne(ctx, sc, coord)
		if err != nil {
			return fmt.Errorf("trustnet: sweep run [%s seed=%d]: %w", coord, sc.Seed, err)
		}
		runs[i] = rr
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &SweepResult{Spec: spec, Cells: make([]CellResult, numCells)}
	for c := 0; c < numCells; c++ {
		res.Cells[c] = aggregateCell(runs[c*len(seeds) : (c+1)*len(seeds)])
	}
	return res, nil
}

// applyCell decodes a flat cell index into per-axis points (row-major) and
// applies them to sc.
func applyCell(sc *Scenario, axes []Axis, cell int) (Coord, error) {
	var coord Coord
	// Decode indices innermost-axis-first.
	idx := make([]int, len(axes))
	for i := len(axes) - 1; i >= 0; i-- {
		n := axes[i].size()
		idx[i] = cell % n
		cell /= n
	}
	for i, a := range axes {
		frag, err := a.apply(sc, idx[i])
		if err != nil {
			return nil, err
		}
		coord = append(coord, frag...)
	}
	return coord, nil
}

// runOne executes a single expanded run.
func (e *Experiment) runOne(ctx context.Context, sc Scenario, coord Coord) (RunResult, error) {
	eng, _, err := sc.Run(ctx)
	if err != nil {
		return RunResult{}, err
	}
	// Measure before Observe runs: observers may poke the mechanism (submit
	// a probe report, trigger a recompute) without perturbing the recorded
	// facets, summary, or history.
	g := eng.Assess().GlobalFacets()
	trust, err := Combine(g, sc.weights())
	if err != nil {
		return RunResult{}, err
	}
	rr := RunResult{
		Coord:   coord,
		Seed:    sc.Seed,
		History: eng.History(),
		Summary: eng.Summary(),
		Global:  g,
		Trust:   trust,
	}
	if e.observe != nil {
		for k, v := range e.observe(eng) {
			if rr.Extra == nil {
				rr.Extra = map[string]float64{}
			}
			rr.Extra[k] = v
		}
	}
	return rr, nil
}

// aggregateCell folds one cell's replications (already in seed order).
func aggregateCell(runs []RunResult) CellResult {
	cell := CellResult{Runs: append([]RunResult(nil), runs...)}
	if len(runs) > 0 {
		cell.Coord = runs[0].Coord
	}
	collect := func(get func(RunResult) float64) Agg {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = get(r)
		}
		return metrics.Describe(xs)
	}
	cell.Trust = collect(func(r RunResult) float64 { return r.Trust })
	cell.Satisfaction = collect(func(r RunResult) float64 { return r.Global.Satisfaction })
	cell.Reputation = collect(func(r RunResult) float64 { return r.Global.Reputation })
	cell.Privacy = collect(func(r RunResult) float64 { return r.Global.Privacy })

	maxEpochs := 0
	for _, r := range runs {
		if len(r.History) > maxEpochs {
			maxEpochs = len(r.History)
		}
	}
	for ep := 0; ep < maxEpochs; ep++ {
		pick := func(get func(EpochStats) float64) Agg {
			var xs []float64
			for _, r := range runs {
				if ep < len(r.History) {
					xs = append(xs, get(r.History[ep]))
				}
			}
			return metrics.Describe(xs)
		}
		epoch := ep
		for _, r := range runs {
			if ep < len(r.History) {
				epoch = r.History[ep].Epoch
				break
			}
		}
		cell.Epochs = append(cell.Epochs, EpochAgg{
			Epoch:        epoch,
			Trust:        pick(func(s EpochStats) float64 { return s.Trust }),
			Satisfaction: pick(func(s EpochStats) float64 { return s.Satisfaction }),
			Reputation:   pick(func(s EpochStats) float64 { return s.Reputation }),
			Privacy:      pick(func(s EpochStats) float64 { return s.Privacy }),
			Disclosure:   pick(func(s EpochStats) float64 { return s.Disclosure }),
			Honesty:      pick(func(s EpochStats) float64 { return s.Honesty }),
			BadRate:      pick(func(s EpochStats) float64 { return s.BadRate }),
			Tau:          pick(func(s EpochStats) float64 { return s.Tau }),
			Community:    pick(func(s EpochStats) float64 { return s.Community }),
		})
	}
	if len(cell.Epochs) > 0 {
		final := cell.Epochs[len(cell.Epochs)-1]
		cell.Final = &final
	}

	keys := map[string]bool{}
	for _, r := range runs {
		for k := range r.Extra {
			keys[k] = true
		}
	}
	if len(keys) > 0 {
		cell.Extra = make(map[string]Agg, len(keys))
		names := make([]string, 0, len(keys))
		for k := range keys {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			var xs []float64
			for _, r := range runs {
				if v, ok := r.Extra[k]; ok {
					xs = append(xs, v)
				}
			}
			cell.Extra[k] = metrics.Describe(xs)
		}
	}
	return cell
}

// WriteJSON emits the result as indented JSON. The encoding is
// deterministic: equal sweeps produce byte-identical documents at any
// worker count.
func (r *SweepResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV emits one row per (cell, epoch): the cell coordinates, the seed
// replication count, and mean/std per aggregated metric (plus the mean of
// any extra metrics, repeated on each of the cell's rows). Cells without
// epoch history emit a single row with the final facet aggregation.
func (r *SweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	var params []string
	if len(r.Cells) > 0 {
		for _, av := range r.Cells[0].Coord {
			params = append(params, av.Param)
		}
	}
	extras := map[string]bool{}
	for _, c := range r.Cells {
		for k := range c.Extra {
			extras[k] = true
		}
	}
	extraNames := make([]string, 0, len(extras))
	for k := range extras {
		extraNames = append(extraNames, k)
	}
	sort.Strings(extraNames)

	header := append([]string{}, params...)
	header = append(header, "seeds", "epoch",
		"trust_mean", "trust_std",
		"satisfaction_mean", "satisfaction_std",
		"reputation_mean", "reputation_std",
		"privacy_mean", "privacy_std",
		"disclosure_mean", "honesty_mean", "bad_rate_mean", "tau_mean")
	for _, k := range extraNames {
		header = append(header, k+"_mean")
	}
	if err := cw.Write(header); err != nil {
		return err
	}

	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, c := range r.Cells {
		prefix := make([]string, 0, len(c.Coord))
		for _, av := range c.Coord {
			prefix = append(prefix, av.text())
		}
		writeRow := func(epoch string, ep EpochAgg) error {
			row := append([]string{}, prefix...)
			row = append(row, strconv.Itoa(len(c.Runs)), epoch,
				f(ep.Trust.Mean), f(ep.Trust.Std),
				f(ep.Satisfaction.Mean), f(ep.Satisfaction.Std),
				f(ep.Reputation.Mean), f(ep.Reputation.Std),
				f(ep.Privacy.Mean), f(ep.Privacy.Std),
				f(ep.Disclosure.Mean), f(ep.Honesty.Mean), f(ep.BadRate.Mean), f(ep.Tau.Mean))
			for _, k := range extraNames {
				if agg, ok := c.Extra[k]; ok {
					row = append(row, f(agg.Mean))
				} else {
					row = append(row, "")
				}
			}
			return cw.Write(row)
		}
		for _, ep := range c.Epochs {
			if err := writeRow(strconv.Itoa(ep.Epoch), ep); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
