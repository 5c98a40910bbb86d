package cluster

import (
	"repro/internal/linalg"
	"repro/internal/reputation"
	"repro/internal/workload"
)

// The wire schema. One envelope type with a kind tag and one pointer field
// per payload; codec.go encodes the tag and that kind's payload fields in a
// fixed binary layout. The types are package-private because both ends of
// every conversation live in this package.
//
// Conversation shapes (all per-connection, strictly ordered):
//
//	worker → master   hello
//	master → worker   welcome (scenario spec) | error (handshake rejection)
//	master → worker   sync (full snapshot; only when the replica is stale)
//	master → worker   honesty (override vector; only when the replica is
//	                  current but for the honesty override)
//	master → worker   scatter → scatterResult
//	master → worker   reports (mechanism feedback mirror; no reply)
//	master → worker   spmv → spmvResult
//	master → worker   ping → pong
//	master → worker   shutdown (no reply; worker exits cleanly)
type msgKind uint8

const (
	kindHello msgKind = iota + 1
	kindWelcome
	kindError
	kindSync
	kindScatter
	kindScatterResult
	kindReports
	kindSpMV
	kindSpMVResult
	kindPing
	kindPong
	kindShutdown
	kindHonesty
)

// envelope is the single frame type every transport carries.
type envelope struct {
	Kind       msgKind
	Hello      *helloMsg
	Welcome    *welcomeMsg
	Err        *errorMsg
	Sync       *syncMsg
	Honesty    *honestyMsg
	Scatter    *scatterMsg
	ScatterRes *scatterResultMsg
	Reports    *reportsMsg
	SpMV       *spmvMsg
	SpMVRes    *spmvResultMsg
}

// helloMsg registers a worker under a unique name.
type helloMsg struct {
	Name string
}

// welcomeMsg accepts a worker and carries the JSON scenario spec it must
// build its engine replica from (deterministically — the spec embeds the
// seed).
type welcomeMsg struct {
	Scenario []byte
}

// errorMsg rejects a handshake (e.g. duplicate worker name).
type errorMsg struct {
	Msg string
}

// syncMsg resynchronizes a stale replica: a full engine snapshot in the
// trustnet wire format, tagged with the master's mutation generation.
type syncMsg struct {
	Gen      uint64
	Snapshot []byte
}

// honestyMsg brings a replica that is current on the mutation generation up
// to the master's honesty generation: the full override vector, installed
// with SetHonestOverride. HasOverride distinguishes "no override" from an
// empty one (zero-length slices decode to nil).
type honestyMsg struct {
	Override    []float64
	HasOverride bool
}

// scatterMsg asks the worker to simulate a contiguous chunk of a round's
// plans against its replica. HasPool distinguishes "everyone present" (nil
// pool) from an empty active pool: zero-length slices decode to nil, and the
// two mean different candidate-sampling draws.
type scatterMsg struct {
	Plans   []workload.PlannedInteraction
	Scores  []float64
	Gate    float64
	Pool    []int
	HasPool bool
	Round   int
}

// scatterResultMsg returns one outcome per plan, in plan order.
type scatterResultMsg struct {
	Outcomes []workload.InteractionOutcome
}

// reportsMsg mirrors a mechanism-accepted report batch onto the replica so
// its feedback matrix tracks the master's without a full resync.
type reportsMsg struct {
	Reports []reputation.Report
}

// spmvMsg asks the worker to scatter blocks [Lob, Hib) of the mechanism's
// current matrix against x (see reputation.BlockScatterer).
type spmvMsg struct {
	X        []float64
	Lob, Hib int
}

// spmvResultMsg returns the blocks' compressed partials, one per block in
// ascending order.
type spmvResultMsg struct {
	Parts []linalg.BlockPartial
}
