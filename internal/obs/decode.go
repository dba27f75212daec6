package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
