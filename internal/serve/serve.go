// Package serve hosts a trustnet engine behind a long-lived daemon: a
// session advances coupling epochs on a background goroutine while an
// HTTP/JSON API (see http.go) answers reputation queries, accepts feedback
// reports, streams epoch summaries, and takes snapshots.
//
// The core mechanism is an epoch-boundary read/write concordance:
//
//   - Reads never touch the live engine. At every epoch boundary the server
//     copies the mechanism's score vector (from its read-only ScoresView)
//     into a fresh immutable View — scores, rank order, epoch
//     stats, a checksum — and swaps it in with one atomic pointer store.
//     Queries load the pointer and read freely: a reader can hold a view
//     across any number of epoch swaps and still see one epoch-consistent
//     vector. (A strict two-buffer swap would tear for exactly such slow
//     readers, which is why the back buffer is freshly allocated: one
//     n-float allocation per epoch, microscopic next to the epoch itself.)
//
//   - Writes never land mid-epoch. Submitted reports go into an arrival-
//     ordered queue that is drained at the next epoch boundary and applied
//     through Engine.SubmitReports before the epoch runs. The applied log
//     records which epoch each report landed at, so a served run is
//     replayable: a batch Session over the same scenario with a ReportWave
//     schedule built from that log produces bit-identical scores.
package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/trustnet"
)

// Config configures a Server around an assembled engine.
type Config struct {
	// Engine is the live engine the daemon owns. Required; the server is
	// the only writer once Start is called.
	Engine *trustnet.Engine
	// Schedule is an optional scripted intervention schedule, applied at
	// epoch boundaries exactly as a batch Session would (after any queued
	// reports for that boundary).
	Schedule trustnet.Schedule
	// MaxEpochs bounds how many epochs the server advances (0 = unlimited).
	// A server whose session is done keeps answering queries.
	MaxEpochs int
	// EpochInterval is the pause between epochs in the background loop
	// (0 = advance continuously).
	EpochInterval time.Duration
	// Manual disables the background loop: epochs advance only through
	// Advance (or POST /v1/advance). Deterministic tests and interactive
	// stepping use this mode.
	Manual bool
}

// Entry is one user's score and rank in a View.
type Entry struct {
	User  int     `json:"user"`
	Score float64 `json:"score"`
	Rank  int     `json:"rank"`
}

// View is one epoch-consistent, immutable snapshot of the reputation state:
// the score vector as of an epoch boundary, the derived rank order, and the
// epoch's stats. Views are built by the session goroutine and published
// with an atomic pointer swap; readers may hold one indefinitely.
type View struct {
	// Epoch is the number of completed coupling epochs this view reflects.
	Epoch int
	// Stats is the last completed epoch's stats (zero before any epoch).
	Stats trustnet.EpochStats
	// ActivePeers is the present-population count at the boundary.
	ActivePeers int

	scores   []float64
	order    []int // user ids by score desc, ties by id asc
	rank     []int // rank[user] = 1-based position in order
	checksum uint64
}

// Len returns the population size.
func (v *View) Len() int { return len(v.scores) }

// Score returns one user's score.
func (v *View) Score(user int) (float64, error) {
	if user < 0 || user >= len(v.scores) {
		return 0, fmt.Errorf("serve: user %d out of range [0,%d)", user, len(v.scores))
	}
	return v.scores[user], nil
}

// Rank returns one user's 1-based rank (rank 1 = highest score; ties break
// towards the lower user id).
func (v *View) Rank(user int) (int, error) {
	if user < 0 || user >= len(v.rank) {
		return 0, fmt.Errorf("serve: user %d out of range [0,%d)", user, len(v.rank))
	}
	return v.rank[user], nil
}

// Scores returns the full score vector. The slice is shared with the view
// and must be treated as read-only; it is immutable once published.
func (v *View) Scores() []float64 { return v.scores }

// TopK returns the k highest-scored users in rank order (all of them when
// k <= 0 or k exceeds the population).
func (v *View) TopK(k int) []Entry {
	if k <= 0 || k > len(v.order) {
		k = len(v.order)
	}
	out := make([]Entry, k)
	for i := 0; i < k; i++ {
		u := v.order[i]
		out[i] = Entry{User: u, Score: v.scores[u], Rank: i + 1}
	}
	return out
}

// Consistent recomputes the checksum and the rank/order invariants; it
// returns false if the view was torn by a concurrent writer (it never is —
// the -race hammer test asserts exactly this).
func (v *View) Consistent() bool {
	if v.checksum != v.computeChecksum() {
		return false
	}
	if len(v.order) != len(v.scores) || len(v.rank) != len(v.scores) {
		return false
	}
	for pos, u := range v.order {
		if u < 0 || u >= len(v.rank) || v.rank[u] != pos+1 {
			return false
		}
		if pos > 0 {
			prev := v.order[pos-1]
			if v.scores[prev] < v.scores[u] || (v.scores[prev] == v.scores[u] && prev > u) {
				return false
			}
		}
	}
	return true
}

func (v *View) computeChecksum() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(v.Epoch))
	for _, s := range v.scores {
		put(math.Float64bits(s))
	}
	return h.Sum64()
}

// buildView derives the immutable read view from a score vector.
func buildView(epoch, activePeers int, st trustnet.EpochStats, src []float64) *View {
	v := &View{
		Epoch:       epoch,
		Stats:       st,
		ActivePeers: activePeers,
		scores:      append([]float64(nil), src...),
		order:       make([]int, len(src)),
		rank:        make([]int, len(src)),
	}
	for i := range v.order {
		v.order[i] = i
	}
	sort.Slice(v.order, func(a, b int) bool {
		ua, ub := v.order[a], v.order[b]
		if v.scores[ua] != v.scores[ub] {
			return v.scores[ua] > v.scores[ub]
		}
		return ua < ub
	})
	for pos, u := range v.order {
		v.rank[u] = pos + 1
	}
	v.checksum = v.computeChecksum()
	return v
}

// AppliedReport is one externally submitted report together with the epoch
// boundary it was applied at. The applied log replays a served run as a
// batch ReportWave schedule.
type AppliedReport struct {
	Epoch int     `json:"epoch"`
	Rater int     `json:"rater"`
	Ratee int     `json:"ratee"`
	Value float64 `json:"value"`
}

// Stats is the server's observability counters.
type Stats struct {
	Peers          int     `json:"peers"`
	Mechanism      string  `json:"mechanism"`
	Shards         int     `json:"shards"`
	Epoch          int     `json:"epoch"`
	ActivePeers    int     `json:"active_peers"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Queries        int64   `json:"queries"`
	ReportsQueued  int64   `json:"reports_queued"`
	ReportsApplied int64   `json:"reports_applied"`
	ReportsPending int     `json:"reports_pending"`
	StreamDropped  int64   `json:"stream_dropped"`
	SessionDone    bool    `json:"session_done"`
	// SettledUsers/DirtyFacets surface the last epoch's sub-linear-tail
	// counters: how many users sat at their trust fixed point, and how many
	// had a facet input change.
	SettledUsers int `json:"settled_users"`
	DirtyFacets  int `json:"dirty_facets"`
}

// ErrNotStarted is returned by Advance before Start.
var ErrNotStarted = errors.New("serve: server not started")

// Server owns an engine session and serves it. Construct with New, then
// Start; the HTTP surface comes from Handler.
type Server struct {
	cfg       Config
	eng       *trustnet.Engine
	peers     int
	mechName  string
	shards    int
	started   time.Time
	view      atomic.Pointer[View]
	epochDone atomic.Int64 // completed epochs, mirrors the published view

	// mu serializes every engine mutation or traversal: epoch advances,
	// report application, snapshots. Queries never take it.
	mu          sync.Mutex
	session     *trustnet.Session
	ctx         context.Context
	sessionDone bool
	runErr      error

	// qmu guards the arrival-ordered report queue and the applied log.
	qmu     sync.Mutex
	queue   []trustnet.Report
	applied []AppliedReport

	queries        atomic.Int64
	reportsQueued  atomic.Int64
	reportsApplied atomic.Int64
	streamDropped  atomic.Int64

	submu   sync.Mutex
	subs    map[int]chan trustnet.EpochStats
	nextSub int
	closed  bool

	done chan struct{}
}

// New builds a server around an engine. The initial view reflects the
// engine's current state (epoch 0 for a fresh engine; a restored engine
// starts from its snapshot's epoch).
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("serve: nil engine")
	}
	if cfg.MaxEpochs < 0 {
		return nil, fmt.Errorf("serve: max epochs must be >= 0, got %d", cfg.MaxEpochs)
	}
	if cfg.EpochInterval < 0 {
		return nil, fmt.Errorf("serve: negative epoch interval %v", cfg.EpochInterval)
	}
	s := &Server{
		cfg:      cfg,
		eng:      cfg.Engine,
		peers:    cfg.Engine.Peers(),
		mechName: cfg.Engine.Mechanism().Name(),
		shards:   cfg.Engine.Shards(),
		started:  time.Now(),
		subs:     map[int]chan trustnet.EpochStats{},
		done:     make(chan struct{}),
	}
	var st trustnet.EpochStats
	if hist := cfg.Engine.History(); len(hist) > 0 {
		st = hist[len(hist)-1]
	}
	v := buildView(cfg.Engine.EpochIndex(), cfg.Engine.ActivePeers(), st, cfg.Engine.Mechanism().ScoresView())
	s.view.Store(v)
	s.epochDone.Store(int64(v.Epoch))
	return s, nil
}

// Start opens the session and, unless the server is Manual, launches the
// background epoch loop. The context governs the whole serve: cancelling it
// stops the loop between rounds (not just at epoch boundaries).
func (s *Server) Start(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.session != nil {
		return fmt.Errorf("serve: server already started")
	}
	opts := []trustnet.SessionOption{trustnet.WithSchedule(s.cfg.Schedule)}
	if s.cfg.MaxEpochs > 0 {
		opts = append(opts, trustnet.WithMaxEpochs(s.cfg.MaxEpochs))
	}
	sess, err := s.eng.Session(ctx, opts...)
	if err != nil {
		return err
	}
	s.session = sess
	s.ctx = ctx
	if !s.cfg.Manual {
		go s.loop()
	}
	return nil
}

// Done is closed when the background loop exits (session budget exhausted,
// context cancelled, or epoch failure). Manual servers close it only when
// their session ends through Advance.
func (s *Server) Done() <-chan struct{} { return s.done }

// Err reports why the loop stopped (nil for a clean budget-exhausted end).
func (s *Server) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runErr
}

// loop advances epochs until the session ends or the context cancels.
func (s *Server) loop() {
	defer close(s.done)
	defer s.closeSubs()
	for {
		if err := s.ctx.Err(); err != nil {
			s.setErr(err)
			return
		}
		_, err := s.Advance(1)
		switch {
		case errors.Is(err, trustnet.ErrSessionDone):
			return
		case err != nil:
			if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				s.setErr(err)
			}
			return
		}
		if s.cfg.EpochInterval > 0 {
			select {
			case <-s.ctx.Done():
				return
			case <-time.After(s.cfg.EpochInterval):
			}
		}
	}
}

func (s *Server) setErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runErr == nil {
		s.runErr = err
	}
}

// Advance drains the report queue and runs n epochs. Each epoch boundary
// applies the queued reports first (in arrival order), then the scheduled
// interventions, then the epoch — exactly the order a batch ReportWave
// schedule replays.
func (s *Server) Advance(n int) (trustnet.EpochStats, error) {
	var last trustnet.EpochStats
	for i := 0; i < n; i++ {
		st, err := s.advanceOnce()
		if err != nil {
			return last, err
		}
		last = st
	}
	return last, nil
}

func (s *Server) advanceOnce() (trustnet.EpochStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.session == nil {
		return trustnet.EpochStats{}, ErrNotStarted
	}
	if s.sessionDone {
		return trustnet.EpochStats{}, trustnet.ErrSessionDone
	}
	// Budget check before consuming the queue: reports must never be
	// swallowed by a boundary whose epoch will not run.
	if s.cfg.MaxEpochs > 0 && s.session.Delivered() >= s.cfg.MaxEpochs {
		s.sessionDone = true
		return trustnet.EpochStats{}, trustnet.ErrSessionDone
	}
	epoch := s.session.Epoch()
	s.qmu.Lock()
	batch := s.queue
	s.queue = nil
	s.qmu.Unlock()
	if len(batch) > 0 {
		if err := s.eng.SubmitReports(batch...); err != nil {
			// Enqueue-time validation makes this unreachable short of a
			// mechanism-internal failure; surface it as the session error.
			s.runErr = err
			return trustnet.EpochStats{}, err
		}
		s.qmu.Lock()
		for _, r := range batch {
			s.applied = append(s.applied, AppliedReport{Epoch: epoch, Rater: r.Rater, Ratee: r.Ratee, Value: r.Value})
		}
		s.qmu.Unlock()
		s.reportsApplied.Add(int64(len(batch)))
	}
	st, err := s.session.Next()
	if err != nil {
		if errors.Is(err, trustnet.ErrSessionDone) {
			s.sessionDone = true
		}
		return trustnet.EpochStats{}, err
	}
	v := buildView(s.eng.EpochIndex(), s.eng.ActivePeers(), st, s.eng.Mechanism().ScoresView())
	s.view.Store(v)
	s.epochDone.Store(int64(v.Epoch))
	s.broadcast(st)
	return st, nil
}

// View returns the current published view. Never nil.
func (s *Server) View() *View { return s.view.Load() }

// EnqueueReport validates a report and queues it for the next epoch
// boundary. It returns the epoch the report is expected to apply at (the
// next boundary as of enqueue time; the applied log is authoritative).
func (s *Server) EnqueueReport(r trustnet.Report) (int, error) {
	if err := r.ValidateExternal(s.peers); err != nil {
		return 0, fmt.Errorf("serve: %w", err)
	}
	r.TxID = 0 // assigned by the engine at application
	s.qmu.Lock()
	s.queue = append(s.queue, r)
	s.qmu.Unlock()
	s.reportsQueued.Add(1)
	return int(s.epochDone.Load()), nil
}

// AppliedLog returns a copy of the applied-report log: every externally
// submitted report with the epoch boundary it landed at, in application
// order.
func (s *Server) AppliedLog() []AppliedReport {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return append([]AppliedReport(nil), s.applied...)
}

// SnapshotNow captures an engine snapshot at a safe point: it takes the
// engine lock, so the snapshot always lands between epochs, never inside
// one.
func (s *Server) SnapshotNow() (*trustnet.Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Snapshot()
}

// Stats returns the server's counters.
func (s *Server) Stats() Stats {
	s.qmu.Lock()
	pending := len(s.queue)
	s.qmu.Unlock()
	s.mu.Lock()
	done := s.sessionDone
	s.mu.Unlock()
	v := s.View()
	return Stats{
		Peers:          s.peers,
		Mechanism:      s.mechName,
		Shards:         s.shards,
		Epoch:          v.Epoch,
		ActivePeers:    v.ActivePeers,
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Queries:        s.queries.Load(),
		ReportsQueued:  s.reportsQueued.Load(),
		ReportsApplied: s.reportsApplied.Load(),
		ReportsPending: pending,
		StreamDropped:  s.streamDropped.Load(),
		SessionDone:    done,
		SettledUsers:   v.Stats.SettledUsers,
		DirtyFacets:    v.Stats.DirtyFacets,
	}
}

// subscribe registers an epoch-summary listener. The channel is buffered;
// a subscriber that falls an entire buffer behind loses summaries (counted
// in StreamDropped) rather than stalling the epoch loop.
func (s *Server) subscribe() (int, <-chan trustnet.EpochStats) {
	s.submu.Lock()
	defer s.submu.Unlock()
	id := s.nextSub
	s.nextSub++
	ch := make(chan trustnet.EpochStats, 64)
	if s.closed {
		close(ch)
		return id, ch
	}
	s.subs[id] = ch
	return id, ch
}

func (s *Server) unsubscribe(id int) {
	s.submu.Lock()
	defer s.submu.Unlock()
	if ch, ok := s.subs[id]; ok {
		delete(s.subs, id)
		close(ch)
	}
}

func (s *Server) broadcast(st trustnet.EpochStats) {
	s.submu.Lock()
	defer s.submu.Unlock()
	for _, ch := range s.subs {
		select {
		case ch <- st:
		default:
			s.streamDropped.Add(1)
		}
	}
}

func (s *Server) closeSubs() {
	s.submu.Lock()
	defer s.submu.Unlock()
	s.closed = true
	for id, ch := range s.subs {
		delete(s.subs, id)
		close(ch)
	}
}
