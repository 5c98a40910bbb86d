package privacy

import (
	"fmt"

	"repro/internal/dht"
	"repro/internal/sim"
)

// NewStandaloneService assembles the full privacy stack over a fresh DHT:
// a ring of `nodes` storage machines with the given replication factor and
// the PriServ-style service wired to the simulation clock. It replaces the
// ring-join boilerplate every caller of NewService otherwise repeats.
func NewStandaloneService(nodes, replicas int, s *sim.Sim) (*Service, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("privacy: standalone service needs nodes > 0, got %d", nodes)
	}
	ring := dht.NewRing(replicas)
	for i := 0; i < nodes; i++ {
		if err := ring.Join(i); err != nil {
			return nil, fmt.Errorf("privacy: join node %d: %w", i, err)
		}
	}
	ring.Stabilize()
	return NewService(ring, s)
}
