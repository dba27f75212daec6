package main

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"safesense/internal/obs"
)

// httpMetrics are the request-level families the middleware populates.
type httpMetrics struct {
	requests *obs.CounterVec   // method, route, status
	latency  *obs.HistogramVec // method, route
	inFlight *obs.Gauge
	panics   *obs.Counter
}

func newHTTPMetrics(reg *obs.Registry) *httpMetrics {
	return &httpMetrics{
		requests: reg.Counter("safesense_http_requests_total",
			"HTTP requests served, by method, route, and status code.",
			"method", "route", "status"),
		latency: reg.Histogram("safesense_http_request_seconds",
			"HTTP request latency, by method and route.",
			obs.DefBuckets, "method", "route"),
		inFlight: reg.Gauge("safesense_http_in_flight",
			"Requests currently being served.").With(),
		panics: reg.Counter("safesense_http_panics_total",
			"Handler panics recovered by the middleware (served as 500).").With(),
	}
}

// route is a request's metric label: the pattern of the mux route that
// serves it, method stripped ("GET /v1/campaigns/{id}" becomes
// "/v1/campaigns/{id}"), or "other" when no route matches. The label
// set is the route table itself, so its cardinality stays bounded no
// matter what clients send.
func (s *Server) route(r *http.Request) string {
	_, p := s.mux.Handler(r)
	if _, path, ok := strings.Cut(p, " "); ok {
		p = path
	}
	if p == "" {
		return "other"
	}
	return p
}

// statusLabel maps an HTTP status code onto the fixed vocabulary used
// as the metrics status label. Codes the server actually emits keep
// their exact value; anything else collapses to its class bucket, so
// the label cardinality is bounded no matter what a handler writes
// (the metriclabels analyzer forbids formatting the raw int).
func statusLabel(status int) string {
	switch status {
	case http.StatusOK:
		return "200"
	case http.StatusAccepted:
		return "202"
	case http.StatusNoContent:
		return "204"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusConflict:
		return "409"
	case http.StatusGone:
		return "410"
	case http.StatusRequestEntityTooLarge:
		return "413"
	case http.StatusInternalServerError:
		return "500"
	case http.StatusServiceUnavailable:
		return "503"
	}
	switch {
	case status >= 100 && status < 200:
		return "1xx"
	case status < 300:
		return "2xx"
	case status < 400:
		return "3xx"
	case status < 500:
		return "4xx"
	case status < 600:
		return "5xx"
	}
	return "other"
}

// requestIDHeader is the inbound/outbound correlation header. A sane
// client-supplied value is honored as the trace ID (so a caller can pick
// "demo" and grep every log line and span it produced); otherwise the
// middleware mints one.
const requestIDHeader = "X-Request-ID"

// maxRequestIDLen bounds honored client request IDs.
const maxRequestIDLen = 64

// sanitizeRequestID accepts printable-ASCII IDs without spaces, quotes,
// or backslashes (they land in log lines and exemplar labels verbatim).
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > maxRequestIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return ""
		}
	}
	return id
}

type loggerKey struct{}

// reqLog returns the request-scoped logger (carrying request_id) when the
// middleware installed one, else the server's base logger.
func (s *Server) reqLog(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(loggerKey{}).(*slog.Logger); ok {
		return l
	}
	return s.cfg.Log
}

// statusRecorder captures the status code and payload size a handler
// writes, for the request log and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += n
	return n, err
}

// Flush forwards to the underlying writer so the SSE endpoints (which
// require an http.Flusher to push frames as they happen) work through
// the middleware.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		if sr.status == 0 {
			sr.status = http.StatusOK
		}
		f.Flush()
	}
}

// withObservability wraps the router with per-request trace roots,
// request metrics, structured request logs (every record stamped with the
// request ID), and panic recovery (panic → 500 + counter; the
// connection-abort sentinel is re-raised for net/http to handle).
//
// The request ID doubles as the trace ID: it is honored from an inbound
// X-Request-ID header (sanitized), echoed back on the response, attached
// to every slog record and error payload, recorded as the latency
// histogram's exemplar, and used as the root of the span tree that
// campaign.Run and sim.RunContext extend.
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		route := s.route(r)

		ctx, span := s.traces.Root(r.Context(), "http "+route, sanitizeRequestID(r.Header.Get(requestIDHeader)))
		id := span.TraceID()
		w.Header().Set(requestIDHeader, id)
		log := s.cfg.Log.With("request_id", id)
		ctx = context.WithValue(ctx, loggerKey{}, log)
		r = r.WithContext(ctx)
		span.SetAttr("method", r.Method)
		span.SetAttr("route", route)

		start := time.Now()
		s.metrics.inFlight.Add(1)
		defer func() {
			s.metrics.inFlight.Add(-1)
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					panic(p)
				}
				s.metrics.panics.Inc()
				if rec.status == 0 {
					obs.WriteError(rec, r, http.StatusInternalServerError, fmt.Errorf("internal error"))
				}
				log.Error("handler panic",
					"method", r.Method, "path", r.URL.Path, "panic", fmt.Sprint(p))
			}
			status := rec.status
			if status == 0 {
				status = http.StatusOK
			}
			elapsed := time.Since(start)
			span.SetAttrInt("status", int64(status))
			span.End()
			s.metrics.requests.With(r.Method, route, statusLabel(status)).Inc()
			s.metrics.latency.With(r.Method, route).ObserveExemplar(elapsed.Seconds(), id)
			log.Info("request",
				"method", r.Method, "path", r.URL.Path, "route", route,
				"status", status, "bytes", rec.bytes,
				"duration_ms", float64(elapsed.Nanoseconds())/1e6)
		}()
		next.ServeHTTP(rec, r)
	})
}
