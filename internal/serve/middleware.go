package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// maxBodyBytes bounds request bodies; a batch of 64 specs fits in a few
// kilobytes, so 1 MiB is generous.
const maxBodyBytes = 1 << 20

// decodeJSON parses one strict JSON request body: unknown fields, syntax
// errors and trailing garbage all fail with errBadRequest.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: invalid JSON body: %w", errBadRequest, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing data after JSON body", errBadRequest)
	}
	return nil
}

// statusWriter captures the response code for the metrics middleware and
// forwards Flush so the NDJSON stream endpoint keeps working through the
// wrapper.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// Flush implements http.Flusher when the underlying writer does.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// endpointHandler is an instrumented handler: it receives its endpoint's
// metrics record so it can book cache outcomes on it.
type endpointHandler func(w http.ResponseWriter, r *http.Request, st *endpointStats)

// instrument registers the endpoint's metrics record and wraps h with the
// per-request plumbing shared by all instrumented endpoints: inflight
// gauge, latency/status observation and panic isolation. A panicking
// handler is converted into a 500 (when the response has not started) and
// the process keeps serving.
func (s *Server) instrument(endpoint string, h endpointHandler) http.Handler {
	st := s.metrics.register(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		st.inflight.Add(1)
		defer st.inflight.Add(-1)
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				s.logf("panic in %s handler (isolated): %v", endpoint, rec)
				if !sw.wrote {
					writeJSON(sw, http.StatusInternalServerError,
						errorResponse{Error: "internal error: request panicked", Code: http.StatusInternalServerError})
				}
			}
			st.observe(sw.code, time.Since(start))
		}()
		h(sw, r, st)
	})
}

// writeJSON renders one JSON response body. Encoding a value built from
// plain result/error structs cannot fail; a broken client connection is
// the only error source and is deliberately not reported to the peer.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
