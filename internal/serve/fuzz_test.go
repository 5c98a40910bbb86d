package serve

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/strictjson"
	"repro/trustnet"
)

// FuzzReportBody posts hostile bytes as the body of POST /v1/reports on a
// manual-mode server. Every body gets 202, 400 or 422, never a panic or a
// 5xx: 400 exactly when strict decoding refuses it, 422 when the decoded
// report fails ValidateExternal, and 202 otherwise, which queues exactly
// the decoded report. A refused body queues nothing. The seeds under
// testdata/fuzz cover a valid report, trailing data, two reports, an
// unknown field, out-of-range ids and a value that overflows float64.
func FuzzReportBody(f *testing.F) {
	eng, err := servedScenario(7, 0).NewEngine()
	if err != nil {
		f.Fatal(err)
	}
	srv, err := New(Config{Engine: eng, Manual: true})
	if err != nil {
		f.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		var want trustnet.Report
		decodeErr := strictjson.Decode(bytes.NewReader(body), &want)
		srv.qmu.Lock()
		queued := len(srv.queue)
		srv.qmu.Unlock()

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reports", bytes.NewReader(body)))

		srv.qmu.Lock()
		defer srv.qmu.Unlock()
		got := srv.queue[queued:]
		// Drop what this input queued, so the queue stays small however
		// long the fuzzer runs.
		defer func() { srv.queue = srv.queue[:queued] }()
		wantCode := http.StatusAccepted
		if decodeErr != nil {
			wantCode = http.StatusBadRequest
		} else if want.ValidateExternal(eng.Peers()) != nil {
			wantCode = http.StatusUnprocessableEntity
		}
		if rec.Code != wantCode {
			t.Fatalf("body %q: status %d, want %d (reply %s)", body, rec.Code, wantCode, rec.Body)
		}
		if wantCode != http.StatusAccepted {
			if len(got) != 0 {
				t.Fatalf("body %q: refused with %d but queued %+v", body, rec.Code, got)
			}
			return
		}
		if len(got) != 1 || got[0].Rater != want.Rater || got[0].Ratee != want.Ratee ||
			math.Float64bits(got[0].Value) != math.Float64bits(want.Value) || got[0].TxID != 0 {
			t.Fatalf("body %q: queued %+v, want exactly %+v", body, got, want)
		}
	})
}
