package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	obstrace "safesense/internal/obs/trace"
)

// DecodeStrict decodes exactly one JSON value from r into v — the wire
// contract every safesense service shares. Unknown object fields are
// errors (a typo like "onset" for "onsets" must fail loudly, not
// silently sweep the default grid), and so is anything after the value
// except whitespace. Read errors, including an http.MaxBytesError, stay
// in the returned chain.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("a second JSON value follows")
		}
		return fmt.Errorf("trailing data after JSON value: %w", err)
	}
	return nil
}

// BodyStatus maps a failure to read or decode a request body to its
// HTTP status: 413 when the body blew its http.MaxBytesReader cap, 400
// for anything else (malformed JSON, a client that hung up mid-body).
func BodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// WriteJSON writes v as a JSON reply with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the error reply {"error": ..., "request_id": ...},
// stamping the request ID so a failure report can be matched to its log
// records and trace.
func WriteError(w http.ResponseWriter, r *http.Request, code int, err error) {
	body := map[string]string{"error": err.Error()}
	if id := obstrace.ID(r.Context()); id != "" {
		body["request_id"] = id
	}
	WriteJSON(w, code, body)
}
