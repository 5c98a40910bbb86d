package dht

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// ReplicaAddrs returns the addresses currently responsible for key.
func (r *Ring) ReplicaAddrs(key string) []int {
	set := r.replicaSet(HashKey(key))
	addrs := make([]int, len(set))
	for i, n := range set {
		addrs[i] = n.addr
	}
	return addrs
}

// Keys returns the number of distinct keys stored across the ring.
func (r *Ring) Keys() int {
	seen := make(map[string]bool)
	for _, n := range r.sorted {
		for k := range n.store {
			seen[k] = true
		}
	}
	return len(seen)
}

// LoadByNode returns how many key replicas each live node stores, keyed by
// address (for load-balance tests).
func (r *Ring) LoadByNode() map[int]int {
	out := make(map[int]int, len(r.sorted))
	for _, n := range r.sorted {
		out[n.addr] = len(n.store)
	}
	return out
}

func buildRing(t *testing.T, n, replicas int) *Ring {
	t.Helper()
	r := NewRing(replicas)
	for i := 0; i < n; i++ {
		if err := r.Join(i); err != nil {
			t.Fatal(err)
		}
	}
	r.Stabilize()
	return r
}

func TestPutGetRoundTrip(t *testing.T) {
	r := buildRing(t, 32, 3)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := r.Put(key, []byte(key+"-value")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		v, err := r.Get(key)
		if err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
		if string(v) != key+"-value" {
			t.Fatalf("Get(%s) = %q", key, v)
		}
	}
}

func TestGetMissingKey(t *testing.T) {
	r := buildRing(t, 8, 2)
	_, err := r.Get("nope")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestEmptyRingErrors(t *testing.T) {
	r := NewRing(2)
	if err := r.Put("k", nil); !errors.Is(err, ErrEmptyRing) {
		t.Fatalf("Put on empty: %v", err)
	}
	if _, err := r.Get("k"); !errors.Is(err, ErrEmptyRing) {
		t.Fatalf("Get on empty: %v", err)
	}
	if _, err := r.LookupHops("k"); !errors.Is(err, ErrEmptyRing) {
		t.Fatalf("LookupHops on empty: %v", err)
	}
}

func TestDoubleJoinRejected(t *testing.T) {
	r := NewRing(1)
	if err := r.Join(5); err != nil {
		t.Fatal(err)
	}
	if err := r.Join(5); err == nil {
		t.Fatal("duplicate join accepted")
	}
}

func TestReplicationFactor(t *testing.T) {
	r := buildRing(t, 20, 3)
	if err := r.Put("k1", []byte("v")); err != nil {
		t.Fatal(err)
	}
	addrs := r.ReplicaAddrs("k1")
	if len(addrs) != 3 {
		t.Fatalf("replica count = %d", len(addrs))
	}
	seen := map[int]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("duplicate replica %d", a)
		}
		seen[a] = true
	}
}

func TestReplicaClampedToRingSize(t *testing.T) {
	r := buildRing(t, 2, 5)
	if err := r.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := len(r.ReplicaAddrs("k")); got != 2 {
		t.Fatalf("replicas = %d, want clamped 2", got)
	}
}

func TestSurvivesNodeFailure(t *testing.T) {
	r := buildRing(t, 30, 3)
	const nkeys = 200
	for i := 0; i < nkeys; i++ {
		if err := r.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Kill one replica of every key — take down 1/3 of the ring.
	for i := 0; i < 10; i++ {
		r.Leave(i * 3)
	}
	r.Stabilize()
	for i := 0; i < nkeys; i++ {
		if _, err := r.Get(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("key k%d lost after 33%% failures with 3 replicas: %v", i, err)
		}
	}
	if r.Size() != 20 {
		t.Fatalf("size = %d", r.Size())
	}
}

func TestStabilizeReReplicates(t *testing.T) {
	r := buildRing(t, 10, 2)
	if err := r.Put("key", []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := r.ReplicaAddrs("key")
	// Kill one of its replicas.
	r.Leave(before[0])
	r.Stabilize()
	after := r.ReplicaAddrs("key")
	if len(after) != 2 {
		t.Fatalf("replicas after repair = %d", len(after))
	}
	// The new replica set must again hold the value on every member.
	load := r.LoadByNode()
	for _, a := range after {
		if load[a] == 0 {
			t.Fatalf("replica %d does not hold the key after stabilize", a)
		}
	}
}

func TestJoinTakesOverKeys(t *testing.T) {
	r := buildRing(t, 5, 1)
	for i := 0; i < 100; i++ {
		if err := r.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// New nodes join; after stabilize every key must still be readable and
	// single-replica keys must live exactly on their current owner.
	for i := 5; i < 25; i++ {
		if err := r.Join(i); err != nil {
			t.Fatal(err)
		}
	}
	r.Stabilize()
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := r.Get(key); err != nil {
			t.Fatalf("lost %s after joins: %v", key, err)
		}
	}
	total := 0
	for _, c := range r.LoadByNode() {
		total += c
	}
	if total != 100 {
		t.Fatalf("replica copies = %d, want exactly 100 with k=1", total)
	}
}

func TestDelete(t *testing.T) {
	r := buildRing(t, 10, 3)
	if err := r.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	r.Delete("k")
	if _, err := r.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key still readable: %v", err)
	}
	if r.Keys() != 0 {
		t.Fatalf("Keys = %d after delete", r.Keys())
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	r := buildRing(t, 256, 1)
	var total, count float64
	for i := 0; i < 500; i++ {
		h, err := r.LookupHops(fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		total += float64(h)
		count++
	}
	mean := total / count
	// Chord expects ~0.5*log2(n) = 4 hops for n=256; allow generous slack
	// but fail if it degenerates to linear routing.
	if mean > 3*math.Log2(256) {
		t.Fatalf("mean hops = %v, not logarithmic for n=256", mean)
	}
	if mean == 0 {
		t.Fatal("all lookups zero hops — routing not exercised")
	}
}

func TestHopsCountersAccumulate(t *testing.T) {
	r := buildRing(t, 64, 2)
	if err := r.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Get("a"); err != nil {
			t.Fatal(err)
		}
	}
	if r.Lookups != 10 {
		t.Fatalf("Lookups = %d", r.Lookups)
	}
}

func TestLoadBalance(t *testing.T) {
	r := buildRing(t, 50, 1)
	const nkeys = 5000
	for i := 0; i < nkeys; i++ {
		if err := r.Put(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	load := r.LoadByNode()
	maxLoad := 0
	for _, c := range load {
		if c > maxLoad {
			maxLoad = c
		}
	}
	// Consistent hashing without virtual nodes: max load should still be
	// within ~8x of the mean for 50 nodes / 5000 keys.
	mean := float64(nkeys) / 50
	if float64(maxLoad) > 8*mean {
		t.Fatalf("max load %d vs mean %.0f — hashing badly unbalanced", maxLoad, mean)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	r := buildRing(t, 4, 1)
	if err := r.Put("k", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	v, err := r.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	v[0] = 'X'
	v2, err := r.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v2) != "abc" {
		t.Fatal("Get exposed internal storage")
	}
}

func TestPutCopiesValue(t *testing.T) {
	r := buildRing(t, 4, 1)
	buf := []byte("abc")
	if err := r.Put("k", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	v, err := r.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "abc" {
		t.Fatal("Put aliased caller's buffer")
	}
}

func TestHashDeterminism(t *testing.T) {
	if HashKey("a") != HashKey("a") {
		t.Fatal("HashKey not deterministic")
	}
	if HashKey("a") == HashKey("b") {
		t.Fatal("trivial hash collision")
	}
	if HashNode(1) == HashKey("1") {
		t.Fatal("node and key hash domains not separated")
	}
}

func TestPropertyAllKeysFindableUnderChurn(t *testing.T) {
	f := func(seed uint16) bool {
		r := NewRing(3)
		for i := 0; i < 20; i++ {
			if r.Join(i) != nil {
				return false
			}
		}
		r.Stabilize()
		for i := 0; i < 30; i++ {
			if r.Put(fmt.Sprintf("s%d-k%d", seed, i), []byte{byte(i)}) != nil {
				return false
			}
		}
		// Deterministic churn from the seed: remove 2 nodes, add 2.
		r.Leave(int(seed) % 20)
		r.Leave(int(seed/7) % 20)
		_ = r.Join(100 + int(seed)%50)
		_ = r.Join(200 + int(seed)%50)
		r.Stabilize()
		for i := 0; i < 30; i++ {
			if _, err := r.Get(fmt.Sprintf("s%d-k%d", seed, i)); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestInOpenInterval(t *testing.T) {
	cases := []struct {
		x, a, b uint64
		want    bool
	}{
		{5, 1, 10, true},
		{1, 1, 10, false},
		{10, 1, 10, false},
		{15, 10, 1, true}, // wrapping
		{0, 10, 1, true},  // wrapping
		{5, 10, 1, false},
		{3, 5, 5, true}, // full circle except a
		{5, 5, 5, false},
	}
	for _, c := range cases {
		if got := inOpenInterval(c.x, c.a, c.b); got != c.want {
			t.Fatalf("inOpenInterval(%d,%d,%d) = %v", c.x, c.a, c.b, got)
		}
	}
}
