package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/strictjson"
	"repro/trustnet"
)

// Handler returns the server's HTTP/JSON API:
//
//	GET  /v1/healthz          liveness + current epoch
//	GET  /v1/stats            server counters
//	POST /v1/reports          queue a feedback report for the next boundary
//	GET  /v1/reports/log      applied-report log (epoch-stamped, replayable)
//	GET  /v1/scores           full score vector at the current view
//	GET  /v1/scores/{user}    one user's score + rank
//	GET  /v1/top?k=N          top-K users by score
//	GET  /v1/epochs/latest    last completed epoch's stats
//	GET  /v1/epochs/stream    SSE stream of epoch summaries (?limit=N)
//	POST /v1/advance?epochs=N step a Manual server (409 otherwise)
//	GET  /v1/snapshot         gob-encoded engine snapshot (trustsim -resume compatible)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/reports", s.handleSubmitReport)
	mux.HandleFunc("GET /v1/reports/log", s.handleReportLog)
	mux.HandleFunc("GET /v1/scores", s.handleScores)
	mux.HandleFunc("GET /v1/scores/{user}", s.handleScore)
	mux.HandleFunc("GET /v1/top", s.handleTop)
	mux.HandleFunc("GET /v1/epochs/latest", s.handleLatestEpoch)
	mux.HandleFunc("GET /v1/epochs/stream", s.handleEpochStream)
	mux.HandleFunc("POST /v1/advance", s.handleAdvance)
	mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"epoch":  s.View().Epoch,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleSubmitReport(w http.ResponseWriter, r *http.Request) {
	var rep trustnet.Report
	if err := strictjson.Decode(r.Body, &rep); err != nil {
		writeError(w, http.StatusBadRequest, "invalid report body: %v", err)
		return
	}
	applyEpoch, err := s.EnqueueReport(rep)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"accepted":    true,
		"apply_epoch": applyEpoch,
	})
}

func (s *Server) handleReportLog(w http.ResponseWriter, _ *http.Request) {
	log := s.AppliedLog()
	if log == nil {
		log = []AppliedReport{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"applied": log})
}

func (s *Server) handleScores(w http.ResponseWriter, _ *http.Request) {
	s.queries.Add(1)
	v := s.View()
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":  v.Epoch,
		"scores": v.Scores(),
	})
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	user, err := strconv.Atoi(r.PathValue("user"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid user %q", r.PathValue("user"))
		return
	}
	v := s.View()
	score, err := v.Score(user)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	rank, _ := v.Rank(user)
	writeJSON(w, http.StatusOK, map[string]any{
		"user":  user,
		"score": score,
		"rank":  rank,
		"epoch": v.Epoch,
	})
}

func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	k := 10
	if q := r.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "invalid k %q", q)
			return
		}
		k = n
	}
	v := s.View()
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch": v.Epoch,
		"top":   v.TopK(k),
	})
}

func (s *Server) handleLatestEpoch(w http.ResponseWriter, _ *http.Request) {
	s.queries.Add(1)
	v := s.View()
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch": v.Epoch,
		"stats": v.Stats,
	})
}

// handleEpochStream serves epoch summaries as Server-Sent Events: one
// "epoch" event per completed epoch, ending when the client disconnects,
// the session ends, or an optional ?limit=N is reached.
func (s *Server) handleEpochStream(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "invalid limit %q", q)
			return
		}
		limit = n
	}
	id, ch := s.subscribe()
	defer s.unsubscribe(id)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	sent := 0
	for {
		select {
		case <-r.Context().Done():
			return
		case st, ok := <-ch:
			if !ok {
				return
			}
			v := s.View()
			payload, err := json.Marshal(map[string]any{
				"epoch": v.Epoch,
				"stats": st,
			})
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: epoch\ndata: %s\n\n", payload)
			flusher.Flush()
			sent++
			if limit > 0 && sent >= limit {
				return
			}
		}
	}
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.Manual {
		writeError(w, http.StatusConflict, "server advances epochs automatically; POST /v1/advance requires manual mode")
		return
	}
	n := 1
	if q := r.URL.Query().Get("epochs"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, "invalid epochs %q", q)
			return
		}
		n = v
	}
	st, err := s.Advance(n)
	switch {
	case errors.Is(err, trustnet.ErrSessionDone):
		writeError(w, http.StatusConflict, "session epoch budget exhausted")
		return
	case errors.Is(err, ErrNotStarted):
		writeError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch": s.View().Epoch,
		"stats": st,
	})
}

// handleSnapshot streams a gob snapshot of the engine, captured between
// epochs. The bytes are exactly what trustsim -checkpoint writes, so the
// download resumes under `trustsim -resume`.
func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	snap, err := s.SnapshotNow()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, "encode snapshot: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", fmt.Sprintf("trustnet-epoch%d.snap", snap.Epoch())))
	w.Header().Set("X-Trustnet-Epoch", strconv.Itoa(snap.Epoch()))
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}
