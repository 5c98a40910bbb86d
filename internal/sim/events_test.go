package sim

import (
	"errors"
	"testing"
)

func TestRunOrdersByTime(t *testing.T) {
	s := New()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("clock = %d, want 30", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var at Time
	s.After(7, func() {
		s.After(5, func() { at = s.Now() })
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != 12 {
		t.Fatalf("nested After fired at %d, want 12", at)
	}
}

func TestPastSchedulingClamped(t *testing.T) {
	s := New()
	var fired Time = -1
	s.At(10, func() {
		s.At(3, func() { fired = s.Now() }) // in the past: clamp to now
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 10 {
		t.Fatalf("past event fired at %d, want clamped to 10", fired)
	}
}

func TestHorizonPausesAndResumes(t *testing.T) {
	s := New()
	var fired []Time
	s.At(5, func() { fired = append(fired, 5) })
	s.At(15, func() { fired = append(fired, 15) })
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || s.Now() != 10 {
		t.Fatalf("after first run: fired=%v now=%d", fired, s.Now())
	}
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[1] != 15 {
		t.Fatalf("after second run: fired=%v", fired)
	}
}

func TestHorizonAdvancesIdleClock(t *testing.T) {
	s := New()
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 100 {
		t.Fatalf("idle clock = %d, want 100", s.Now())
	}
}

func TestHalt(t *testing.T) {
	s := New()
	count := 0
	s.At(1, func() { count++; s.Halt() })
	s.At(2, func() { count++ })
	err := s.Run(0)
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("err = %v, want ErrHalted", err)
	}
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
}

func TestEveryTicksUntilCancelled(t *testing.T) {
	s := New()
	count := 0
	cancel, err := s.Every(10, func() {
		count++
		if count == 3 {
			// Cancellation from within the callback must stop future ticks.
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.At(35, func() { cancel() })
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("ticks = %d, want 3 (at t=10,20,30)", count)
	}
}

func TestEveryRejectsNonPositive(t *testing.T) {
	s := New()
	if _, err := s.Every(0, func() {}); err == nil {
		t.Fatal("Every(0) did not error")
	}
	if _, err := s.Every(-5, func() {}); err == nil {
		t.Fatal("Every(-5) did not error")
	}
}

func TestStepsCountsExecuted(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.At(Time(i), func() {})
	}
	s.At(9, func() {}) // past the horizon: stays queued, not executed
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if s.Steps != 5 {
		t.Fatalf("Steps = %d, want 5", s.Steps)
	}
}
