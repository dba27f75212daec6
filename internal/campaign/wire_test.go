package campaign

import (
	"reflect"
	"testing"
)

// TestCadence pins the partial-frame rule both routes share: due each
// time the count crosses a multiple of max(1, jobs/32), never at zero
// or at the last job (that frame goes out with "done"), and only for a
// count above every earlier one.
func TestCadence(t *testing.T) {
	dueAt := func(jobs int, counts []int) []int {
		c := NewCadence(jobs)
		var due []int
		for _, n := range counts {
			if c.Due(n) {
				due = append(due, n)
			}
		}
		return due
	}
	upTo := func(n int) []int {
		counts := make([]int, n+1)
		for i := range counts {
			counts[i] = i
		}
		return counts
	}
	for _, tc := range []struct{ jobs, frames int }{
		{0, 0}, {1, 0}, {5, 4}, {63, 62}, {64, 31}, {1008, 32}, {1024, 31}, {4096, 31},
	} {
		due := dueAt(tc.jobs, upTo(tc.jobs))
		if len(due) != tc.frames {
			t.Errorf("jobs %d: %d frames due before close, want %d: %v", tc.jobs, len(due), tc.frames, due)
		}
	}
	// Jumps fire once per crossing; dips and repeats never fire, and a
	// count reported at the last job waits for close.
	if got, want := dueAt(1008, []int{16, 32, 31, 20, 32, 62, 100, 96, 992, 1008, 1008}), []int{32, 62, 100, 992}; !reflect.DeepEqual(got, want) {
		t.Fatalf("due at %v, want %v", got, want)
	}
}
