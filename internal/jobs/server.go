package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/core"
	"repro/internal/obs"
)

// Server exposes a Manager over HTTP+JSON — the wbtuned API surface:
//
//	POST   /v1/jobs              submit a JobSpec           → 202 + Status
//	GET    /v1/jobs              list jobs                  → 200 + []Status
//	GET    /v1/jobs/{name}       inspect one job            → 200 + Status
//	DELETE /v1/jobs/{name}       cancel one job             → 202 + Status
//	GET    /v1/jobs/{name}/rounds  SSE round stream         → text/event-stream
//	GET    /metrics              Prometheus exposition
//	GET    /healthz              liveness probe
//
// Refusals map to distinct status codes (see writeError): a full queue is
// 503 + Retry-After, an exceeded quota 429, a duplicate name 409, an
// invalid or unknown-program spec 400, a body over 1 MiB 413, an unknown
// job 404.
type Server struct {
	m   *Manager
	obs *obs.Registry
	mux *http.ServeMux
}

// NewServer builds the HTTP surface over m. reg, when non-nil, backs
// /metrics.
func NewServer(m *Manager, reg *obs.Registry) *Server {
	s := &Server{m: m, obs: reg, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{name}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{name}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{name}/rounds", s.handleRounds)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	if reg != nil {
		s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			_ = reg.WritePrometheus(w)
		})
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// statusFor maps a typed refusal to its HTTP status code.
func statusFor(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrQueueFull):
		return http.StatusServiceUnavailable // back-pressure: retry later
	case errors.Is(err, ErrQuotaExceeded):
		return http.StatusTooManyRequests // tenant's own footprint
	case errors.Is(err, ErrDuplicate):
		return http.StatusConflict
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrUnknownProgram),
		errors.Is(err, core.ErrSpecInvalid),
		errors.Is(err, core.ErrSpecVersion):
		return http.StatusBadRequest
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func writeError(w http.ResponseWriter, err error) {
	code := statusFor(err)
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec core.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	if err == nil {
		// The spec is the whole body: only EOF may follow the one JSON value.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("data after the spec")
		}
	}
	if err != nil {
		writeError(w, fmt.Errorf("%w: bad spec JSON: %w", core.ErrSpecInvalid, err))
		return
	}
	st, err := s.m.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.m.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.m.Get(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.m.Cancel(name); err != nil {
		writeError(w, err)
		return
	}
	st, err := s.m.Get(name)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// handleRounds streams the job's rounds as Server-Sent Events: one "round"
// event per Round (JSON data), then one "done" event carrying the final
// Status when the job reaches rest. Events are flushed a batch at a time:
// the headers with the rounds already run, then each live event with
// whatever else is ready behind it, then the "done" event.
func (s *Server) handleRounds(w http.ResponseWriter, r *http.Request) {
	past, ch, status, stop, err := s.m.Subscribe(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	defer stop()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	event := func(kind string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			// An unmarshalable event (a NaN score, say) skips that event
			// rather than tearing down the whole stream.
			return true
		}
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", kind, data)
		return err == nil
	}
	// send writes one channel receive, and the "done" event if it was the
	// close; it reports whether the stream goes on.
	send := func(rd Round, open bool) bool {
		if !open {
			event("done", status())
			return false
		}
		return event("round", rd)
	}
	for _, rd := range past {
		if !event("round", rd) {
			return
		}
	}
	// Ship the headers now, with the rounds already run: a job with no rounds
	// yet would otherwise leave the client blocked waiting for them until the
	// first event.
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case rd, open := <-ch:
			more := send(rd, open)
		drain:
			for more {
				select {
				case rd, open = <-ch:
					more = send(rd, open)
				default:
					break drain
				}
			}
			fl.Flush()
			if !more {
				return
			}
		}
	}
}
