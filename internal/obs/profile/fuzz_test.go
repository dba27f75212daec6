package profile

import (
	"os"
	"testing"
)

// FuzzReadShares hammers the reader with mutated captures. Its oracle:
// ReadShares never panics (bounded input, strict structure checks), and
// any input it accepts yields finite shares in [0, 1] that sum to one
// whenever the total is nonzero — the invariant the phase-share gauge
// publishes on.
func FuzzReadShares(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x1f, 0x8b})
	f.Add(testCapture().Marshal())
	f.Add(testCapture().MarshalGzip())
	f.Add((&fabricated{SampleType: []valueType{{Type: "cpu", Unit: "nanoseconds"}}}).Marshal())
	if golden, err := os.ReadFile(goldenCapture); err == nil {
		f.Add(golden)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("bounded: continuous captures are a few hundred KiB")
		}
		sh, err := ReadShares(data)
		if err != nil {
			return
		}
		checkShares(t, sh)
	})
}
