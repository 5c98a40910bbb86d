package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/linalg"
	"repro/internal/reputation"
	"repro/internal/workload"
)

// The frame codec. A frame is one kind byte followed by that kind's payload
// fields in the fixed order encodeFrame writes them:
//
//   - signed integers as varints, unsigned ones as uvarints;
//   - each float64 as the 8 little-endian bytes of math.Float64bits, so
//     every bit pattern (−0, NaN payloads) crosses the wire unchanged;
//   - each bool as one byte, 0 or 1;
//   - each slice or byte string as a uvarint element count, then the
//     elements.
//
// A frame carries no type information and no stream state, so it decodes
// on its own whatever preceded it on the connection. Decoding is strict:
// every count is checked against the bytes left in the frame before
// anything is allocated, and a truncated field, an unknown kind or a
// trailing byte is an error, never a panic. Zero-length slices decode to
// nil; where nil and empty mean different things the payload carries a
// presence flag (scatterMsg.HasPool, honestyMsg.HasOverride).

// Minimum encoded sizes of the repeated records, used to bound a count by
// the bytes left in the frame before the records are allocated.
const (
	minPlanBytes    = 1 + 1 + 8 + 1                     // consumer, RNG state, spare, has-spare
	minOutcomeBytes = 1 + 1 + 1 + 1 + 1 + 1 + 8 + 8 + 1 // consumer, provider, absent, gate-failed, candidate count, refused, quality, rating, honest
	minReportBytes  = 1 + 1 + 1 + 8                     // tx id, rater, ratee, value
	minPartialBytes = 1 + 1 + 8                         // column count, value count, mass
)

// encodeFrame encodes one envelope into a self-contained frame. A kind
// whose payload pointer is nil, or an unknown kind, is an error.
func encodeFrame(env *envelope) ([]byte, error) {
	w := frameWriter{b: []byte{byte(env.Kind)}}
	switch k := env.Kind; {
	case k == kindPing || k == kindPong || k == kindShutdown:
	case k == kindHello && env.Hello != nil:
		w.bytes([]byte(env.Hello.Name))
	case k == kindWelcome && env.Welcome != nil:
		w.bytes(env.Welcome.Scenario)
	case k == kindError && env.Err != nil:
		w.bytes([]byte(env.Err.Msg))
	case k == kindSync && env.Sync != nil:
		w.uvarint(env.Sync.Gen)
		w.bytes(env.Sync.Snapshot)
	case k == kindHonesty && env.Honesty != nil:
		w.floats(env.Honesty.Override)
		w.bool(env.Honesty.HasOverride)
	case k == kindScatter && env.Scatter != nil:
		s := env.Scatter
		w.uvarint(uint64(len(s.Plans)))
		for _, p := range s.Plans {
			w.varint(int64(p.Consumer))
			w.uvarint(p.RNG.State)
			w.float(p.RNG.Spare)
			w.bool(p.RNG.HasSpare)
		}
		w.floats(s.Scores)
		w.float(s.Gate)
		w.ints(s.Pool)
		w.bool(s.HasPool)
		w.varint(int64(s.Round))
	case k == kindScatterResult && env.ScatterRes != nil:
		out := env.ScatterRes.Outcomes
		w.uvarint(uint64(len(out)))
		for i := range out {
			o := &out[i]
			w.varint(int64(o.Consumer))
			w.varint(int64(o.Provider))
			w.bool(o.Absent)
			w.bool(o.GateFailed)
			w.ints(o.Candidates)
			w.bool(o.Refused)
			w.float(o.Quality)
			w.float(o.Rating)
			w.bool(o.Honest)
		}
	case k == kindReports && env.Reports != nil:
		rs := env.Reports.Reports
		w.uvarint(uint64(len(rs)))
		for _, r := range rs {
			w.uvarint(r.TxID)
			w.varint(int64(r.Rater))
			w.varint(int64(r.Ratee))
			w.float(r.Value)
		}
	case k == kindSpMV && env.SpMV != nil:
		w.floats(env.SpMV.X)
		w.varint(int64(env.SpMV.Lob))
		w.varint(int64(env.SpMV.Hib))
	case k == kindSpMVResult && env.SpMVRes != nil:
		parts := env.SpMVRes.Parts
		w.uvarint(uint64(len(parts)))
		for i := range parts {
			p := &parts[i]
			w.uvarint(uint64(len(p.Cols)))
			for _, c := range p.Cols {
				w.varint(int64(c))
			}
			w.floats(p.Vals)
			w.float(p.Mass)
		}
	default:
		return nil, fmt.Errorf("cluster: encode frame: kind %d is unknown or lacks its payload", env.Kind)
	}
	return w.b, nil
}

// decodeFrame decodes one self-contained frame. The returned envelope
// always carries the payload its kind calls for. Byte-string payloads (the
// scenario spec, the snapshot) alias b, so the caller hands b over.
func decodeFrame(b []byte) (*envelope, error) {
	if len(b) == 0 {
		return nil, errors.New("cluster: decode frame: empty frame")
	}
	env := &envelope{Kind: msgKind(b[0])}
	r := frameReader{b: b[1:]}
	// Field order below is the encode order: Go evaluates the calls in a
	// composite literal left to right.
	switch env.Kind {
	case kindPing, kindPong, kindShutdown:
	case kindHello:
		env.Hello = &helloMsg{Name: string(r.bytes())}
	case kindWelcome:
		env.Welcome = &welcomeMsg{Scenario: r.bytes()}
	case kindError:
		env.Err = &errorMsg{Msg: string(r.bytes())}
	case kindSync:
		env.Sync = &syncMsg{Gen: r.uvarint(), Snapshot: r.bytes()}
	case kindHonesty:
		env.Honesty = &honestyMsg{Override: r.floats(), HasOverride: r.bool()}
	case kindScatter:
		s := &scatterMsg{}
		if n := r.count(minPlanBytes); n > 0 {
			s.Plans = make([]workload.PlannedInteraction, n)
			for i := range s.Plans {
				p := &s.Plans[i]
				p.Consumer = r.int()
				p.RNG.State = r.uvarint()
				p.RNG.Spare = r.float()
				p.RNG.HasSpare = r.bool()
			}
		}
		s.Scores = r.floats()
		s.Gate = r.float()
		s.Pool = r.ints()
		s.HasPool = r.bool()
		s.Round = r.int()
		env.Scatter = s
	case kindScatterResult:
		res := &scatterResultMsg{}
		if n := r.count(minOutcomeBytes); n > 0 {
			res.Outcomes = make([]workload.InteractionOutcome, n)
			for i := range res.Outcomes {
				o := &res.Outcomes[i]
				o.Consumer = r.int()
				o.Provider = r.int()
				o.Absent = r.bool()
				o.GateFailed = r.bool()
				o.Candidates = r.ints()
				o.Refused = r.bool()
				o.Quality = r.float()
				o.Rating = r.float()
				o.Honest = r.bool()
			}
		}
		env.ScatterRes = res
	case kindReports:
		rep := &reportsMsg{}
		if n := r.count(minReportBytes); n > 0 {
			rep.Reports = make([]reputation.Report, n)
			for i := range rep.Reports {
				rp := &rep.Reports[i]
				rp.TxID = r.uvarint()
				rp.Rater = r.int()
				rp.Ratee = r.int()
				rp.Value = r.float()
			}
		}
		env.Reports = rep
	case kindSpMV:
		env.SpMV = &spmvMsg{X: r.floats(), Lob: r.int(), Hib: r.int()}
	case kindSpMVResult:
		res := &spmvResultMsg{}
		if n := r.count(minPartialBytes); n > 0 {
			res.Parts = make([]linalg.BlockPartial, n)
			for i := range res.Parts {
				p := &res.Parts[i]
				p.Cols = r.int32s()
				p.Vals = r.floats()
				p.Mass = r.float()
			}
		}
		env.SpMVRes = res
	default:
		return nil, fmt.Errorf("cluster: decode frame: unknown kind %d", b[0])
	}
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, fmt.Errorf("cluster: decode frame of kind %d: %w", env.Kind, r.err)
	}
	return env, nil
}

// frameWriter appends encoded fields to one growing buffer.
type frameWriter struct {
	b []byte
}

func (w *frameWriter) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

func (w *frameWriter) varint(v int64) { w.b = binary.AppendVarint(w.b, v) }

func (w *frameWriter) float(f float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(f))
}

func (w *frameWriter) bool(v bool) {
	var c byte
	if v {
		c = 1
	}
	w.b = append(w.b, c)
}

func (w *frameWriter) bytes(p []byte) {
	w.uvarint(uint64(len(p)))
	w.b = append(w.b, p...)
}

func (w *frameWriter) floats(fs []float64) {
	w.uvarint(uint64(len(fs)))
	n := len(w.b)
	w.b = slices.Grow(w.b, 8*len(fs))[:n+8*len(fs)]
	for i, f := range fs {
		binary.LittleEndian.PutUint64(w.b[n+8*i:], math.Float64bits(f))
	}
}

func (w *frameWriter) ints(is []int) {
	w.uvarint(uint64(len(is)))
	for _, v := range is {
		w.varint(int64(v))
	}
}

// frameReader consumes encoded fields from a frame with a sticky error:
// after the first failure every read returns a zero value, so a decoder
// reads a whole payload and checks err once.
type frameReader struct {
	b   []byte
	err error
}

var errTruncated = errors.New("truncated field")

func (r *frameReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *frameReader) uvarint() uint64 {
	v, k := binary.Uvarint(r.b)
	if k <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.b = r.b[k:]
	return v
}

func (r *frameReader) varint() int64 {
	v, k := binary.Varint(r.b)
	if k <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.b = r.b[k:]
	return v
}

func (r *frameReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail(fmt.Errorf("integer %d overflows int", v))
		return 0
	}
	return int(v)
}

func (r *frameReader) float() float64 {
	if len(r.b) < 8 {
		r.fail(errTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *frameReader) bool() bool {
	if len(r.b) < 1 {
		r.fail(errTruncated)
		return false
	}
	c := r.b[0]
	if c > 1 {
		r.fail(fmt.Errorf("bool byte %d", c))
		return false
	}
	r.b = r.b[1:]
	return c == 1
}

// count reads an element count and checks that that many elements of at
// least size encoded bytes each fit in the rest of the frame — the bound
// that keeps a hostile count from allocating more than the frame carries.
func (r *frameReader) count(size int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/size) {
		r.fail(fmt.Errorf("count %d exceeds the %d bytes left", n, len(r.b)))
		return 0
	}
	return int(n)
}

func (r *frameReader) bytes() []byte {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *frameReader) floats() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
	}
	r.b = r.b[8*n:]
	return fs
}

func (r *frameReader) ints() []int {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	is := make([]int, n)
	for i := range is {
		is[i] = r.int()
	}
	return is
}

func (r *frameReader) int32s() []int32 {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	is := make([]int32, n)
	for i := range is {
		v := r.varint()
		if v != int64(int32(v)) {
			r.fail(fmt.Errorf("integer %d overflows int32", v))
			return nil
		}
		is[i] = int32(v)
	}
	return is
}
