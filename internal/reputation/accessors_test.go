package reputation

// Read accessors the tests use as fixtures; the mechanisms read local trust
// through AppendRow and the gatherer through State.

// N returns the matrix dimension.
func (l *LocalTrust) N() int { return l.n }

// S returns max(sat−unsat, 0) for the pair (i, j).
func (l *LocalTrust) S(i, j int) float64 {
	if i < 0 || i >= l.n || j < 0 || j >= l.n {
		return 0
	}
	c := l.rows.Find(i, int32(j))
	if c == nil || c.sat <= c.unsat {
		return 0
	}
	return float64(c.sat - c.unsat)
}

// NormalizedRow returns row i of the normalized matrix C as a dense vector.
// If the row is empty (peer i has no positive local trust), the pretrust
// distribution is returned instead, per the EigenTrust paper: the dense
// reference the sparse AppendRow feed is checked against.
func (l *LocalTrust) NormalizedRow(i int, pretrust []float64) []float64 {
	row := make([]float64, l.n)
	sum := 0.0
	for j := 0; j < l.n; j++ {
		row[j] = l.S(i, j)
		sum += row[j]
	}
	if sum == 0 {
		copy(row, pretrust)
		return row
	}
	for j := range row {
		row[j] /= sum
	}
	return row
}

// HasOutgoing reports whether peer i has any positive local trust.
func (l *LocalTrust) HasOutgoing(i int) bool {
	if i < 0 || i >= l.n {
		return false
	}
	for _, c := range l.rows.Row(i) {
		if c.Val.sat > c.Val.unsat {
			return true
		}
	}
	return false
}

// Find returns cell (i, j)'s aggregate, or nil when the pair has none. The
// pointer is valid until row i's next insert or delete.
func (r *Rows[V]) Find(i int, j int32) *V {
	row := r.rows[i]
	if k, found := find(row, j); found {
		return &row[k].Val
	}
	return nil
}
