package forensic

import (
	"bytes"
	"encoding/json"
	"testing"

	"safesense/internal/obs"
)

// decodeWire takes bytes down the path a worker-shipped capture takes
// into Store.Put: the shared strict decoder, then ValidateCapture.
func decodeWire(data []byte) (Capture, error) {
	var c Capture
	if err := obs.DecodeStrict(bytes.NewReader(data), &c); err != nil {
		return Capture{}, err
	}
	return c, ValidateCapture(c)
}

// FuzzDecodeCapture drives the capture wire path with arbitrary bytes.
// Oracles: an accepted capture must hash deterministically and
// round-trip through Marshal and the wire path onto the same content
// address — the property the fleet-wide dedup rests on.
func FuzzDecodeCapture(f *testing.F) {
	seed := testCapture(7)
	if data, err := json.Marshal(seed); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"schema":1,"job_index":0,"seed":1,"point":{"attack":"dos"},"kinds":["collision"]}`))
	f.Add([]byte(`{"schema":2}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"schema":1,"kinds":["x"],"point":"p","unknown":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeWire(data)
		if err != nil {
			return
		}
		h1, err := c.Hash()
		if err != nil {
			t.Fatalf("decoded capture does not hash: %v", err)
		}
		out, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("decoded capture does not re-marshal: %v", err)
		}
		c2, err := decodeWire(out)
		if err != nil {
			t.Fatalf("re-marshaled capture does not decode: %v", err)
		}
		h2, err := c2.Hash()
		if err != nil || h1 != h2 {
			t.Fatalf("round trip moved the content address: %s -> %s (err %v)", h1, h2, err)
		}
	})
}
