package trustnet

import (
	"context"
	"fmt"
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

// text renders the coordinate value for Coord.String.
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

// validate checks the axis shape and its mechanism kinds.
func (a Axis) validate() error {
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

// ObserveFunc extracts extra per-run metrics from the finished engine. It
// is invoked concurrently from the sweep's worker pool, one call per run:
// read the engine, fill the returned map, and touch nothing shared.
type ObserveFunc func(eng *Engine) map[string]float64

// Experiment is the one description of a §4 many-run study, and plain
// data: a base Scenario expanded over parameter axes (built with Vary,
// VaryTuples and VaryMechanism) and seed replications, with an epoch
// budget. Run executes the run matrix on a bounded worker pool (the base
// scenario's Workers, default GOMAXPROCS) under the deterministic-fold
// discipline (equal seeds ⇒ bit-for-bit equal SweepResults at any pool
// size) and aggregates per-epoch mean/stddev/quantiles per cell. A
// SweepResult embeds the Experiment that produced it, so a result file is
// self-describing.
//
//	res, err := trustnet.Experiment{
//		Base: base,
//		Axes: []trustnet.Axis{
//			trustnet.Vary("disclosure", 0, 0.25, 0.5, 0.75, 1),
//			trustnet.Vary("gate", 0, 0.3),
//		},
//		Seeds:  []uint64{1, 2, 3, 4, 5},
//		Epochs: 10,
//	}.Run(ctx)
type Experiment struct {
	Base Scenario `json:"base"`
	// Axes span the run matrix, first axis outermost.
	Axes []Axis `json:"axes,omitempty"`
	// Seeds replicates every cell once per seed (default: Base.Seed).
	Seeds []uint64 `json:"seeds,omitempty"`
	// Epochs is every run's epoch budget (default: Base.Epochs); an
	// "epochs" axis point still wins for its own cell.
	Epochs int `json:"epochs,omitempty"`
	// Observe, when set, runs after each run completes; the values it
	// returns aggregate per cell like the built-in metrics.
	Observe ObserveFunc `json:"-"`
}

// Vary is a one-parameter axis: the sweep runs every listed value.
func Vary(param string, values ...float64) Axis {
	tuples := make([][]float64, len(values))
	for i, v := range values {
		tuples[i] = []float64{v}
	}
	return Axis{Params: []string{param}, Values: tuples}
}

// VaryTuples is a multi-parameter axis: each tuple sets all named
// parameters together (one axis point), for jointly-varied settings that
// are not a cross product.
func VaryTuples(params []string, tuples ...[]float64) Axis {
	return Axis{Params: params, Values: tuples}
}

// VaryMechanism is a mechanism axis: each spec swaps the scenario's
// reputation mechanism.
func VaryMechanism(specs ...MechanismSpec) Axis {
	return Axis{Mechanisms: specs}
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

// SweepResult is the typed outcome of an Experiment: the Experiment that
// produced it and one aggregated CellResult per matrix cell, in row-major
// axis order (first axis outermost).
type SweepResult struct {
	Spec  Experiment   `json:"spec"`
	Cells []CellResult `json:"cells"`
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

// Run executes the sweep matrix and aggregates it. Every cell and its
// epoch budget are checked before the first run. The worker pool feeds
// runs in matrix order and folds results by index, so the SweepResult —
// including its JSON encoding — is byte-for-byte identical for every
// worker count; ctx cancels between runs.
func (e Experiment) Run(ctx context.Context) (*SweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := e.check(); err != nil {
		return nil, err
	}
	e.Base = e.Base.clone()
	numCells := e.cells()
	seeds := e.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{e.Base.Seed}
	}
	epochs := e.Epochs
	if epochs == 0 {
		epochs = e.Base.Epochs
	}
	workers := e.Base.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	n := numCells * len(seeds)
	runs := make([]RunResult, n)
	err := sim.RunIndexed(ctx, workers, n, func(i int) error {
		cell, seedIdx := i/len(seeds), i%len(seeds)
		sc := e.Base.clone()
		// The Epochs budget applies before the axes, so an "epochs" axis
		// point still wins for its own cell.
		if epochs > 0 {
			sc.Epochs = epochs
		}
		coord, err := applyCell(&sc, e.Axes, cell)
		if err != nil {
			return err
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

	res := &SweepResult{Spec: e, Cells: make([]CellResult, numCells)}
	for c := 0; c < numCells; c++ {
		res.Cells[c] = aggregateCell(runs[c*len(seeds) : (c+1)*len(seeds)])
	}
	return res, nil
}

// mechanismParams are the parameters that set one field of the mechanism
// spec, which a mechanism axis replaces whole.
var mechanismParams = map[string]bool{
	"granularity": true, "noise": true, "priorstrength": true, "alpha": true, "epsilon": true,
}

// check refuses a sweep that could not run as written: a malformed axis, a
// parameter two axes (or one tuple) set, a negative epoch budget, a cell
// without one, or a cell whose parameters do not apply.
func (e Experiment) check() error {
	set := map[string]bool{}
	mechField := "" // the first mechanism field an axis sets
	for _, a := range e.Axes {
		if err := a.validate(); err != nil {
			return err
		}
		params := a.Params
		if len(a.Mechanisms) > 0 {
			if mechField != "" {
				return fmt.Errorf("trustnet: a mechanism axis after the %q axis would overwrite it", mechField)
			}
			params = []string{"mechanism"}
		}
		for j, p := range params {
			if p == "trustgate" {
				p = "gate"
			}
			if set[p] {
				return fmt.Errorf("trustnet: sweep sets parameter %q twice", p)
			}
			set[p] = true
			if mechanismParams[p] && mechField == "" {
				mechField = p
			}
			if p == "epochs" {
				for _, tuple := range a.Values {
					if tuple[j] < 1 {
						return fmt.Errorf("trustnet: sweep point epochs=%v has no epoch budget", tuple[j])
					}
				}
			}
		}
	}
	if e.Epochs < 0 {
		return fmt.Errorf("trustnet: sweep epochs must be positive, got %d", e.Epochs)
	}
	if e.Epochs == 0 && e.Base.Epochs <= 0 && !set["epochs"] {
		return fmt.Errorf("trustnet: sweep has no epoch budget: set the scenario's Epochs or the Experiment's")
	}
	// Apply every cell to a throwaway copy of the base, so an unknown
	// parameter, a non-integral count or class fractions that two axes
	// push past 1 fail here, not at run N of the matrix.
	for c := range e.cells() {
		sc := e.Base.clone()
		if _, err := applyCell(&sc, e.Axes, c); err != nil {
			return err
		}
	}
	return nil
}

// cells returns the number of cells of the run matrix.
func (e Experiment) cells() int {
	n := 1
	for _, a := range e.Axes {
		n *= a.size()
	}
	return n
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
func (e Experiment) runOne(ctx context.Context, sc Scenario, coord Coord) (RunResult, error) {
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
	if e.Observe != nil {
		for k, v := range e.Observe(eng) {
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
