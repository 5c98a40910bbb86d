package trustnet

import (
	"context"
	"errors"
	"fmt"
	"iter"
)

// ErrSessionDone is returned by Session.Next when the session's epoch budget
// (WithMaxEpochs) is exhausted. The Epochs iterator ends cleanly instead of
// yielding it.
var ErrSessionDone = errors.New("trustnet: session epoch budget exhausted")

// sessionConfig is the resolved option set of a Session.
type sessionConfig struct {
	max     int // epochs the session may run; < 0 means unlimited
	sched   Schedule
	onEpoch []func(EpochStats)
	onRound []func(RoundStats)
}

// SessionOption configures a Session.
type SessionOption func(*sessionConfig) error

// WithMaxEpochs bounds how many epochs the session will run (default:
// unlimited — the session streams until the context is cancelled or the
// caller stops pulling).
func WithMaxEpochs(n int) SessionOption {
	return func(c *sessionConfig) error {
		if n < 0 {
			return fmt.Errorf("trustnet: max epochs must be >= 0, got %d", n)
		}
		c.max = n
		return nil
	}
}

// OnEpoch registers an observer invoked after each completed epoch with its
// stats. Observers run on the session's goroutine, see fully merged state,
// and must not mutate the engine; pure observation never touches a random
// stream, so observed and unobserved runs are bit-for-bit identical.
func OnEpoch(fn func(EpochStats)) SessionOption {
	return func(c *sessionConfig) error {
		if fn == nil {
			return fmt.Errorf("trustnet: nil OnEpoch observer")
		}
		c.onEpoch = append(c.onEpoch, fn)
		return nil
	}
}

// OnRound registers an observer invoked after every workload round inside
// each epoch (EpochRounds per epoch). Same contract as OnEpoch: observe,
// don't mutate.
func OnRound(fn func(RoundStats)) SessionOption {
	return func(c *sessionConfig) error {
		if fn == nil {
			return fmt.Errorf("trustnet: nil OnRound observer")
		}
		c.onRound = append(c.onRound, fn)
		return nil
	}
}

// WithSchedule installs the session's intervention schedule. The schedule is
// validated against the engine when the session is created; interventions
// fire at their epoch boundaries. Epoch indices are global to the engine,
// not relative to the session: a session resumed from a snapshot does not
// re-fire boundaries that already passed, and entries beyond this session's
// epoch budget do not fire now but will fire in a later session over the
// same engine once its epochs reach them.
func WithSchedule(s Schedule) SessionOption {
	return func(c *sessionConfig) error {
		c.sched = append(c.sched, s...)
		return nil
	}
}

// Session drives the §3 coupled dynamics incrementally: each Next (or each
// step of the Epochs iterator) applies the interventions scheduled for the
// upcoming epoch boundary, runs one epoch, and fires the registered
// observers. Sessions stream — callers observe, steer, and checkpoint a
// live scenario instead of waiting out a batch Run.
//
// A Session borrows its Engine: epochs it runs extend the engine's shared
// history, and epoch indices continue from wherever the engine is. Do not
// run two sessions of the same engine concurrently (the engine is not safe
// for concurrent mutation); sequential sessions compose fine.
type Session struct {
	eng  *Engine
	ctx  context.Context
	cfg  sessionConfig
	done int   // epochs this session has delivered
	err  error // sticky failure
}

// Session opens a streaming run over the engine. The context is consulted
// before every epoch; cancelling it makes the next call fail with the
// context's error.
func (e *Engine) Session(ctx context.Context, opts ...SessionOption) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := sessionConfig{max: -1}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("trustnet: nil session option")
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if err := cfg.sched.validate(e); err != nil {
		return nil, err
	}
	return &Session{eng: e, ctx: ctx, cfg: cfg}, nil
}

// Epoch returns the index the session's next epoch will run as.
func (s *Session) Epoch() int { return s.eng.dyn.EpochIndex() }

// Delivered returns how many epochs this session has run.
func (s *Session) Delivered() int { return s.done }

// Next applies any interventions scheduled for the upcoming epoch boundary,
// runs one epoch, fires observers, and returns the epoch's stats. It returns
// ErrSessionDone once the epoch budget is exhausted, the context's error if
// it was cancelled, and otherwise sticks to the first failure.
func (s *Session) Next() (EpochStats, error) {
	if s.err != nil {
		return EpochStats{}, s.err
	}
	if s.cfg.max >= 0 && s.done >= s.cfg.max {
		return EpochStats{}, ErrSessionDone
	}
	if err := s.ctx.Err(); err != nil {
		s.err = err
		return EpochStats{}, err
	}
	for _, a := range s.cfg.sched.forEpoch(s.eng.dyn.EpochIndex()) {
		if err := a.applyTo(s.eng); err != nil {
			s.err = err
			return EpochStats{}, err
		}
	}
	we := s.eng.WorkloadEngine()
	if len(s.cfg.onRound) > 0 {
		we.SetRoundObserver(func(rs RoundStats) {
			for _, fn := range s.cfg.onRound {
				fn(rs)
			}
		})
		defer we.SetRoundObserver(nil)
	}
	// The context threads through to the round loop, so cancellation lands
	// between rounds — a daemon's shutdown never stalls behind a large
	// in-flight epoch.
	st, err := s.eng.dyn.EpochCtx(s.ctx)
	if err != nil {
		s.err = err
		return EpochStats{}, err
	}
	s.done++
	for _, fn := range s.cfg.onEpoch {
		fn(st)
	}
	return st, nil
}

// Epochs adapts the session to Go 1.23 range-over-func iteration:
//
//	for st, err := range session.Epochs() {
//		if err != nil { ... }
//	}
//
// The sequence ends when the epoch budget is exhausted or after yielding one
// terminal error (context cancellation or an epoch failure). It is
// single-use, like the session position it advances.
func (s *Session) Epochs() iter.Seq2[EpochStats, error] {
	return func(yield func(EpochStats, error) bool) {
		for {
			st, err := s.Next()
			if errors.Is(err, ErrSessionDone) {
				return
			}
			if err != nil {
				yield(EpochStats{}, err)
				return
			}
			if !yield(st, nil) {
				return
			}
		}
	}
}
