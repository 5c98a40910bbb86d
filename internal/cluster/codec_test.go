package cluster

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/linalg"
	"repro/internal/reputation"
	"repro/internal/sim"
	"repro/internal/workload"
)

// negZero and nanBits are floats a value-comparing codec would lose.
var (
	negZero = math.Copysign(0, -1)
	nanBits = math.Float64frombits(0x7ff8_0000_dead_beef)
)

// codecCases holds one frame of every kind, exercising the values a lossy
// codec would get wrong: −0 and NaN payloads, nil vs empty-but-present pools
// and overrides, buffered Gaussian spares, nil candidate lists.
func codecCases() map[string]*envelope {
	return map[string]*envelope{
		"hello":         {Kind: kindHello, Hello: &helloMsg{Name: "w0"}},
		"welcome":       {Kind: kindWelcome, Welcome: &welcomeMsg{Scenario: []byte(`{"name":"baseline"}`)}},
		"error":         {Kind: kindError, Err: &errorMsg{Msg: `worker name "w0" already registered`}},
		"sync":          {Kind: kindSync, Sync: &syncMsg{Gen: 1 << 40, Snapshot: []byte{0, 1, 2, 255}}},
		"honesty":       {Kind: kindHonesty, Honesty: &honestyMsg{Override: []float64{0.5, negZero, nanBits, 1}, HasOverride: true}},
		"honesty none":  {Kind: kindHonesty, Honesty: &honestyMsg{}},
		"honesty empty": {Kind: kindHonesty, Honesty: &honestyMsg{HasOverride: true}},
		"scatter": {Kind: kindScatter, Scatter: &scatterMsg{
			Plans: []workload.PlannedInteraction{
				{Consumer: 3, RNG: sim.RNGState{State: math.MaxUint64, Spare: negZero, HasSpare: true}},
				{Consumer: 0, RNG: sim.RNGState{State: 12345, Spare: nanBits}},
			},
			Scores: []float64{0.25, negZero, nanBits, math.Inf(-1)},
			Gate:   -1, Pool: []int{4, 1, 0}, HasPool: true, Round: 17,
		}},
		"scatter empty pool": {Kind: kindScatter, Scatter: &scatterMsg{
			Plans:  []workload.PlannedInteraction{{Consumer: 1}},
			Scores: []float64{1, 0}, Gate: 0.5, HasPool: true,
		}},
		"scatter nil pool": {Kind: kindScatter, Scatter: &scatterMsg{Scores: []float64{1}, Round: -3}},
		"scatter result": {Kind: kindScatterResult, ScatterRes: &scatterResultMsg{Outcomes: []workload.InteractionOutcome{
			{Consumer: 2, Provider: -1, Absent: true},
			{Consumer: 5, Provider: -1, GateFailed: true},
			{Consumer: 1, Provider: 7, Candidates: []int{7, 3, 9}, Quality: negZero, Rating: nanBits},
			{Consumer: 4, Provider: 0, Candidates: []int{0}, Refused: true},
		}}},
		"reports": {Kind: kindReports, Reports: &reportsMsg{Reports: []reputation.Report{
			{TxID: 1 << 63, Rater: 4, Ratee: 9, Value: 1},
			{TxID: 0, Rater: 0, Ratee: 0, Value: negZero},
		}}},
		"spmv": {Kind: kindSpMV, SpMV: &spmvMsg{X: []float64{0.5, negZero, nanBits}, Lob: 3, Hib: 5}},
		"spmv result": {Kind: kindSpMVResult, SpMVRes: &spmvResultMsg{Parts: []linalg.BlockPartial{
			{Cols: []int32{0, 2, math.MaxInt32}, Vals: []float64{0.125, negZero, nanBits}, Mass: 0.5},
			{Mass: negZero},
		}}},
		"ping":     {Kind: kindPing},
		"pong":     {Kind: kindPong},
		"shutdown": {Kind: kindShutdown},
	}
}

// sameBits reports whether a and b are deeply equal with every float
// compared by bit pattern and nil slices distinct from empty ones.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint8, reflect.Uint64:
		return a.Uint() == b.Uint()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	panic("sameBits: unhandled kind " + a.Kind().String())
}

// TestFrameRoundTrip: every kind decodes to exactly the envelope that was
// encoded — floats bit for bit, zero-length slices as nil (which is why
// HasPool and HasOverride exist), and no stray payloads.
func TestFrameRoundTrip(t *testing.T) {
	for name, env := range codecCases() {
		t.Run(name, func(t *testing.T) {
			frame, err := encodeFrame(env)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := decodeFrame(frame)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !sameBits(reflect.ValueOf(got), reflect.ValueOf(env)) {
				t.Fatalf("round trip changed the frame:\n got %+v\nwant %+v", got, env)
			}
			// Every proper prefix is truncated and every extension has a
			// trailing byte: both must be errors.
			for k := 0; k < len(frame); k++ {
				if _, err := decodeFrame(frame[:k]); err == nil {
					t.Fatalf("decoding the %d-byte prefix of a %d-byte frame succeeded", k, len(frame))
				}
			}
			if _, err := decodeFrame(append(frame[:len(frame):len(frame)], 0)); err == nil {
				t.Fatal("decoding a frame with a trailing byte succeeded")
			}
		})
	}
}

// TestFrameRejects: payload-less envelopes of payload kinds and unknown
// kinds fail to encode; unknown kinds, non-canonical bools and counts
// larger than the frame fail to decode.
func TestFrameRejects(t *testing.T) {
	for _, env := range []*envelope{{Kind: kindScatter}, {Kind: kindSync}, {Kind: 0}, {Kind: 200}} {
		if _, err := encodeFrame(env); err == nil {
			t.Errorf("encoding kind %d without a payload succeeded", env.Kind)
		}
	}
	for name, frame := range map[string][]byte{
		"unknown kind":    {200},
		"zero kind":       {0},
		"bool byte 2":     {byte(kindHonesty), 0, 2},
		"huge count":      {byte(kindSpMV), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"floats past end": {byte(kindHonesty), 2, 0, 0, 0, 0, 0, 0, 0, 0, 1},
	} {
		if _, err := decodeFrame(frame); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

// FuzzDecodeFrame: decoding arbitrary bytes never panics, allocates at most
// a constant factor of the frame's size, and anything that decodes
// re-encodes to a frame that decodes to the same envelope bit for bit. The
// seed corpus under testdata/fuzz/FuzzDecodeFrame holds the encoding of
// every codecCases frame.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		// Decode repeatedly between two readings so the readings' own
		// allocations average out. The widest record per encoded byte is
		// an int (8 bytes in memory per 1-byte varint); the constant covers
		// the envelope, the payload struct and size-class rounding.
		const reps = 32
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			decodeFrame(frame)
		}
		runtime.ReadMemStats(&after)
		if alloc := (after.TotalAlloc - before.TotalAlloc) / reps; alloc > uint64(16*len(frame)+1024) {
			t.Fatalf("decoding a %d-byte frame allocated %d bytes", len(frame), alloc)
		}
		env, err := decodeFrame(frame)
		if err != nil {
			return
		}
		again, err := encodeFrame(env)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		env2, err := decodeFrame(again)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !sameBits(reflect.ValueOf(env2), reflect.ValueOf(env)) {
			t.Fatalf("re-encoded frame decodes differently:\n got %+v\nwant %+v", env2, env)
		}
	})
}
