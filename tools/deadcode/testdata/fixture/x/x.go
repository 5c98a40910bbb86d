// Package x is the source fixture of the deadcode tests: one declaration of
// each kind the check must key, and one function nothing links.
package x

func init() {}

// F returns a closure.
func F() func() int { return func() int { return 1 } }

// T has a value method and pointer methods.
type T struct{}

// V has a value receiver.
func (T) V() {}

// P has a pointer receiver.
func (*T) P() {}

// N is taken as a method value.
func (t *T) N() {}

// Set is generic.
type Set[K comparable] map[K]bool

// Add has a generic pointer receiver.
func (s *Set[K]) Add(k K) { (*s)[k] = true }

// Pair is generic in two parameters.
type Pair[K, V any] struct{}

// Swap has a receiver with two type parameters.
func (Pair[K, V]) Swap() {}

// Map is a generic function.
func Map[K comparable, V any](m map[K]V) int { return len(m) }

// Dead is linked by nothing.
func Dead() {
}

func _() {}
