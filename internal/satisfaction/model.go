package satisfaction

import "fmt"

// Model bundles the tunable parameters of the Quiané-Ruiz satisfaction
// model for callers that configure scenarios declaratively (the public
// facade's Scenario.Satisfaction); the workload config validates it.
type Model struct {
	// Memory is the EMA weight of the newest allocation in [0,1)
	// (DefaultMemory when zero).
	Memory float64 `json:"memory,omitempty"`
}

// Validate checks the parameters, resolving zero values to defaults.
func (m Model) Validate() (Model, error) {
	if m.Memory == 0 {
		m.Memory = DefaultMemory
	}
	if !(m.Memory >= 0 && m.Memory < 1) {
		return m, fmt.Errorf("satisfaction: memory %v out of [0,1)", m.Memory)
	}
	return m, nil
}
