package sim

import "container/heap"

// Time is the virtual simulation time in abstract ticks. Experiments treat a
// tick as "one unit of network latency" unless stated otherwise.
type Time int64

// Event is a callback scheduled to run at a virtual time.
type Event struct {
	At  Time
	Do  func()
	seq uint64 // tie-breaker: FIFO among same-time events
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
}
func (h *eventHeap) Push(x any) {
	*h = append(*h, x.(*Event))
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Sim is a single-threaded discrete-event simulation loop.
//
// The zero value is ready to use; Now starts at 0.
type Sim struct {
	now   Time
	queue eventHeap
	seq   uint64
	// Steps counts executed events.
	Steps int64
}

// New returns a simulation with the clock at zero.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error surfaced as a panic-free no-op event at the current time plus zero
// delay is allowed; t < Now is clamped to Now (events never run "before now").
func (s *Sim) At(t Time, fn func()) *Event {
	if t < s.now {
		t = s.now
	}
	e := &Event{At: t, Do: fn, seq: s.seq}
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

// After schedules fn to run d ticks from now.
func (s *Sim) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Run executes events in timestamp order until the queue is empty or the
// clock would pass horizon (horizon <= 0 means no horizon).
func (s *Sim) Run(horizon Time) {
	for len(s.queue) > 0 {
		e := heap.Pop(&s.queue).(*Event)
		if horizon > 0 && e.At > horizon {
			// Put it back for a later Run call and stop at the horizon.
			heap.Push(&s.queue, e)
			s.now = horizon
			return
		}
		s.now = e.At
		s.Steps++
		e.Do()
	}
	if horizon > 0 && s.now < horizon {
		s.now = horizon
	}
}
