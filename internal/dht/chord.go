// Package dht implements a Chord-style distributed hash table: consistent
// hashing on a 64-bit ring, finger tables for O(log n) lookups, successor
// replication, and stabilization under churn.
//
// It is the storage substrate two reproduced systems need: TrustMe keeps
// anonymous reputation scores at trust-holding agents located by key, and
// the PriServ-style privacy service (§2.3) publishes/retrieves private data
// references by key.
package dht

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// HashKey maps an arbitrary string key onto the 64-bit identifier ring.
func HashKey(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// HashNode maps a node address onto the ring (salted differently from keys).
func HashNode(addr int) uint64 {
	var b [9]byte
	b[0] = 'n'
	binary.BigEndian.PutUint64(b[1:], uint64(addr))
	sum := sha256.Sum256(b[:])
	return binary.BigEndian.Uint64(sum[:8])
}

const fingerBits = 64

// node is one DHT participant.
type node struct {
	id    uint64
	addr  int
	store map[string][]byte
	// fingers[i] is the address of successor(id + 2^i); rebuilt by Stabilize.
	fingers []int
}

// ErrNotFound is returned by Get when no live replica holds the key.
var ErrNotFound = errors.New("dht: key not found")

// ErrEmptyRing is returned when an operation needs at least one live node.
var ErrEmptyRing = errors.New("dht: ring is empty")

// Ring is the DHT. All operations are synchronous; Hops counters expose the
// routing cost a real deployment would pay in messages.
type Ring struct {
	replicas int
	nodes    map[int]*node // by address
	sorted   []*node       // by ring id
	stale    bool          // fingers need rebuilding

	// Lookups and Hops accumulate routing statistics.
	Lookups int64
	Hops    int64
}

// NewRing creates a DHT with the given replication factor (clamped to >= 1).
func NewRing(replicas int) *Ring {
	if replicas < 1 {
		replicas = 1
	}
	return &Ring{replicas: replicas, nodes: make(map[int]*node)}
}

// Size returns the number of live nodes.
func (r *Ring) Size() int { return len(r.sorted) }

// Join adds a node with the given address. Keys in its arc are replicated to
// it on the next Stabilize. Joining an existing address is an error.
func (r *Ring) Join(addr int) error {
	if _, ok := r.nodes[addr]; ok {
		return fmt.Errorf("dht: address %d already joined", addr)
	}
	n := &node{id: HashNode(addr), addr: addr, store: make(map[string][]byte)}
	r.nodes[addr] = n
	r.sorted = append(r.sorted, n)
	sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i].id < r.sorted[j].id })
	r.stale = true
	return nil
}

// Leave removes a node; its keys survive only on their other replicas until
// Stabilize re-replicates.
func (r *Ring) Leave(addr int) {
	n, ok := r.nodes[addr]
	if !ok {
		return
	}
	delete(r.nodes, addr)
	for i, s := range r.sorted {
		if s == n {
			r.sorted = append(r.sorted[:i], r.sorted[i+1:]...)
			break
		}
	}
	r.stale = true
}

// successorIdx returns the index in sorted of the first node with id >= key
// (wrapping).
func (r *Ring) successorIdx(key uint64) int {
	idx := sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i].id >= key })
	if idx == len(r.sorted) {
		idx = 0
	}
	return idx
}

// Stabilize rebuilds finger tables and re-replicates every key to its
// current replica set. Call after churn; it is idempotent.
func (r *Ring) Stabilize() {
	if len(r.sorted) == 0 {
		r.stale = false
		return
	}
	for _, n := range r.sorted {
		if cap(n.fingers) < fingerBits {
			n.fingers = make([]int, fingerBits)
		}
		n.fingers = n.fingers[:fingerBits]
		for i := 0; i < fingerBits; i++ {
			target := n.id + (uint64(1) << uint(i))
			n.fingers[i] = r.sorted[r.successorIdx(target)].addr
		}
	}
	// Re-replicate: gather all keys, rewrite them at their current owners,
	// and drop replicas that are no longer responsible.
	type kv struct {
		k string
		v []byte
	}
	all := make(map[string][]byte)
	for _, n := range r.sorted {
		for k, v := range n.store {
			all[k] = v
		}
	}
	keys := make([]kv, 0, len(all))
	for k, v := range all {
		keys = append(keys, kv{k, v})
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].k < keys[j].k })
	for _, n := range r.sorted {
		n.store = make(map[string][]byte)
	}
	for _, e := range keys {
		for _, owner := range r.replicaSet(HashKey(e.k)) {
			owner.store[e.k] = e.v
		}
	}
	r.stale = false
}

// replicaSet returns the replica nodes for a key id: its successor and the
// following replicas-1 distinct nodes.
func (r *Ring) replicaSet(keyID uint64) []*node {
	if len(r.sorted) == 0 {
		return nil
	}
	k := r.replicas
	if k > len(r.sorted) {
		k = len(r.sorted)
	}
	out := make([]*node, 0, k)
	idx := r.successorIdx(keyID)
	for i := 0; i < k; i++ {
		out = append(out, r.sorted[(idx+i)%len(r.sorted)])
	}
	return out
}

// Put stores value at the key's replica set.
func (r *Ring) Put(key string, value []byte) error {
	if len(r.sorted) == 0 {
		return ErrEmptyRing
	}
	if r.stale {
		r.Stabilize()
	}
	cp := make([]byte, len(value))
	copy(cp, value)
	for _, n := range r.replicaSet(HashKey(key)) {
		n.store[key] = cp
	}
	return nil
}

// Get retrieves a key from its replica set, charging finger-table routing
// hops from a deterministic start node. It returns ErrNotFound if no replica
// holds the key.
func (r *Ring) Get(key string) ([]byte, error) {
	if len(r.sorted) == 0 {
		return nil, ErrEmptyRing
	}
	if r.stale {
		r.Stabilize()
	}
	keyID := HashKey(key)
	start := r.sorted[int(keyID%uint64(len(r.sorted)))]
	owner, hops := r.route(start, keyID)
	r.Lookups++
	r.Hops += int64(hops)
	// The routed owner plus its successors form the replica set.
	for _, n := range r.replicaSet(keyID) {
		if v, ok := n.store[key]; ok {
			out := make([]byte, len(v))
			copy(out, v)
			return out, nil
		}
	}
	_ = owner
	return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
}

// Delete removes a key from all replicas (used for retention-time expiry in
// the privacy service).
func (r *Ring) Delete(key string) {
	for _, n := range r.sorted {
		delete(n.store, key)
	}
}

// LookupHops routes to the owner of key from a deterministic start and
// returns the hop count (for routing-cost benchmarks).
func (r *Ring) LookupHops(key string) (int, error) {
	if len(r.sorted) == 0 {
		return 0, ErrEmptyRing
	}
	if r.stale {
		r.Stabilize()
	}
	keyID := HashKey(key)
	start := r.sorted[int(keyID%uint64(len(r.sorted)))]
	_, hops := r.route(start, keyID)
	return hops, nil
}

// route walks finger tables from cur toward the successor of keyID,
// returning the owner and the hop count — the classic Chord iterative
// lookup.
func (r *Ring) route(cur *node, keyID uint64) (*node, int) {
	owner := r.sorted[r.successorIdx(keyID)]
	hops := 0
	for cur != owner {
		next := r.closestPreceding(cur, keyID)
		if next == cur {
			// No finger makes progress: step to immediate successor.
			next = r.sorted[(r.idxOf(cur)+1)%len(r.sorted)]
		}
		cur = next
		hops++
		if hops > len(r.sorted)+fingerBits {
			// Defensive: routing must terminate; fall through to owner.
			return owner, hops
		}
	}
	return owner, hops
}

func (r *Ring) idxOf(n *node) int {
	idx := sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i].id >= n.id })
	return idx % len(r.sorted)
}

// closestPreceding returns cur's finger that most closely precedes keyID
// without overshooting it (ring-interval arithmetic).
func (r *Ring) closestPreceding(cur *node, keyID uint64) *node {
	if len(cur.fingers) == 0 {
		return cur
	}
	for i := fingerBits - 1; i >= 0; i-- {
		f := r.nodes[cur.fingers[i]]
		if f == nil || f == cur {
			continue
		}
		if inOpenInterval(f.id, cur.id, keyID) {
			return f
		}
	}
	return cur
}

// inOpenInterval reports whether x lies in the ring interval (a, b) moving
// clockwise.
func inOpenInterval(x, a, b uint64) bool {
	if a < b {
		return x > a && x < b
	}
	if a > b {
		return x > a || x < b
	}
	return x != a
}
