package metrics

import "math/bits"

// DirtySet tracks which of an open-ended id range changed since the last
// Reset, so refresh passes can touch only the dirty entries instead of
// rescanning the whole population. The zero value is an empty, usable set;
// the bitmap grows on demand. Marking and membership are O(1). Sorted walks
// the set bits between the lowest and the highest marked id, so it costs
// O(k + span/64) with no comparison sort, and memoizes its result until the
// next Mark or Reset.
type DirtySet struct {
	words []uint64
	count int
	// While count > 0, lo..hi bound the words holding marks.
	lo, hi int
	ids    []int // Sorted's result while valid
	valid  bool
}

// Mark records id as dirty. Negative ids are ignored.
func (s *DirtySet) Mark(id int) {
	if id < 0 {
		return
	}
	w := id >> 6
	if w >= len(s.words) {
		// Grow geometrically: ids often arrive in ascending order, and
		// growing to exactly w+1 each time would copy Θ(k²) words.
		grown := make([]uint64, max(2*len(s.words), w+1))
		copy(grown, s.words)
		s.words = grown
	}
	bit := uint64(1) << (id & 63)
	if s.words[w]&bit != 0 {
		return
	}
	if s.count == 0 {
		s.lo, s.hi = w, w
	}
	s.words[w] |= bit
	s.count++
	s.lo, s.hi = min(s.lo, w), max(s.hi, w)
	s.valid = false
}

// Dirty reports whether id has been marked since the last Reset.
func (s *DirtySet) Dirty(id int) bool {
	return id >= 0 && id>>6 < len(s.words) && s.words[id>>6]&(1<<(id&63)) != 0
}

// Len returns the number of distinct dirty ids.
func (s *DirtySet) Len() int { return s.count }

// Sorted returns the dirty ids in ascending order. The slice is owned by the
// set and valid until the next Mark or Reset.
func (s *DirtySet) Sorted() []int {
	if !s.valid {
		s.ids = s.ids[:0]
		for w := s.lo; w <= s.hi && s.count > 0; w++ {
			for b := s.words[w]; b != 0; b &= b - 1 {
				s.ids = append(s.ids, w<<6|bits.TrailingZeros64(b))
			}
		}
		s.valid = true
	}
	return s.ids
}

// Reset clears the set, keeping the bitmap's capacity.
func (s *DirtySet) Reset() {
	if s.count > 0 {
		clear(s.words[s.lo : s.hi+1])
	}
	s.count = 0
	s.ids = s.ids[:0]
	s.valid = true
}
