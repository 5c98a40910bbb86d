package dht

import (
	"fmt"
	"maps"
	"slices"
)

// RingState is the serializable mutable state of a Ring whose membership is
// rebuilt out of band (mechanism snapshots re-join the same node set before
// restoring): the stored key/value pairs plus the routing-cost counters.
type RingState struct {
	// Store holds every stored key once, in strictly ascending key order,
	// so equal states encode to equal bytes.
	Store   []Entry
	Lookups int64
	Hops    int64
}

// Entry is one stored key/value pair.
type Entry struct {
	Key   string
	Value []byte
}

// State captures every stored key (deduplicated across replicas) and the
// routing counters.
func (r *Ring) State() RingState {
	values := make(map[string][]byte)
	for _, n := range r.sorted {
		for k, v := range n.store {
			if _, ok := values[k]; !ok {
				values[k] = v
			}
		}
	}
	st := RingState{Store: make([]Entry, 0, len(values)), Lookups: r.Lookups, Hops: r.Hops}
	for _, k := range slices.Sorted(maps.Keys(values)) {
		st.Store = append(st.Store, Entry{Key: k, Value: append([]byte(nil), values[k]...)})
	}
	return st
}

// Check refuses a state whose keys are not strictly ascending, which is
// what State writes: an unsorted or duplicated key marks a forged blob.
func (st RingState) Check() error {
	for i := 1; i < len(st.Store); i++ {
		if prev, k := st.Store[i-1].Key, st.Store[i].Key; prev >= k {
			return fmt.Errorf("dht: ring state key %q after %q: keys not strictly ascending", k, prev)
		}
	}
	return nil
}

// SetState drops all stored keys and restores the captured ones onto the
// current membership's replica sets, plus the routing counters. The ring's
// node set must already match the one the state was captured from for
// placement (and therefore future routing costs) to be identical.
func (r *Ring) SetState(st RingState) {
	if r.stale {
		r.Stabilize()
	}
	for _, n := range r.sorted {
		n.store = make(map[string][]byte)
	}
	for _, e := range st.Store {
		cp := append([]byte(nil), e.Value...)
		for _, n := range r.replicaSet(HashKey(e.Key)) {
			n.store[e.Key] = cp
		}
	}
	r.Lookups = st.Lookups
	r.Hops = st.Hops
}
