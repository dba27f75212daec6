package prbs

import (
	"testing"
	"testing/quick"
)

// period is the m-sequence period 2^n - 1 of an n-stage register.
func period(n int) int { return (1 << uint(n)) - 1 }

// nextBits returns the register's next k output bits.
func nextBits(l *LFSR, k int) []int {
	bits := make([]int, k)
	for i := range bits {
		bits[i] = l.NextBit()
	}
	return bits
}

func TestLFSRPeriod(t *testing.T) {
	// Maximal-length property: every register size must have period 2^n-1.
	for n := 3; n <= 12; n++ {
		l, err := NewLFSR(n, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		start := l.state
		steps := 0
		for {
			l.NextBit()
			steps++
			if l.state == start {
				break
			}
			if steps > period(n)+1 {
				t.Fatalf("n=%d: period exceeds 2^n-1", n)
			}
		}
		if steps != period(n) {
			t.Fatalf("n=%d: period %d, want %d", n, steps, period(n))
		}
	}
}

func TestLFSRBalanceProperty(t *testing.T) {
	// m-sequence balance: over one period, #ones = 2^(n-1), #zeros = 2^(n-1)-1.
	for _, n := range []int{5, 8, 10} {
		l, _ := NewLFSR(n, 7)
		ones := 0
		for i := 0; i < period(n); i++ {
			ones += l.NextBit()
		}
		if want := 1 << uint(n-1); ones != want {
			t.Fatalf("n=%d: %d ones per period, want %d", n, ones, want)
		}
	}
}

func TestLFSRRunProperty(t *testing.T) {
	// m-sequence run property: half the runs have length 1, a quarter
	// length 2, etc. Check at least that the longest run of ones is n and
	// of zeros is n-1 for one period.
	n := 9
	l, _ := NewLFSR(n, 3)
	bits := nextBits(l, period(n))
	maxRun := func(val int) int {
		best, cur := 0, 0
		for _, b := range bits {
			if b == val {
				cur++
				if cur > best {
					best = cur
				}
			} else {
				cur = 0
			}
		}
		return best
	}
	if got := maxRun(1); got != n {
		t.Fatalf("longest 1-run = %d, want %d", got, n)
	}
	if got := maxRun(0); got != n-1 {
		t.Fatalf("longest 0-run = %d, want %d", got, n-1)
	}
}

func TestLFSRZeroSeedCoerced(t *testing.T) {
	l, err := NewLFSR(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Must not be stuck: state changes and bits vary within a period.
	bits := nextBits(l, 31)
	sum := 0
	for _, b := range bits {
		sum += b
	}
	if sum == 0 || sum == 31 {
		t.Fatalf("degenerate sequence from zero seed: sum=%d", sum)
	}
}

func TestLFSRUnsupportedLength(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, -3} {
		if _, err := NewLFSR(n, 1); err == nil {
			t.Fatalf("NewLFSR(%d) should fail", n)
		}
	}
}

func TestLFSRDeterminism(t *testing.T) {
	f := func(seed uint32) bool {
		a, _ := NewLFSR(10, seed)
		b, _ := NewLFSR(10, seed)
		for i := 0; i < 100; i++ {
			if a.NextBit() != b.NextBit() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedSchedule(t *testing.T) {
	s := NewFixedSchedule(50, 15, 175, 15) // duplicate 15 on purpose
	if !s.Challenge(15) || !s.Challenge(50) || !s.Challenge(175) {
		t.Fatal("missing challenge steps")
	}
	if s.Challenge(16) || s.Challenge(0) {
		t.Fatal("spurious challenge steps")
	}
}

func TestPaperFigureSchedule(t *testing.T) {
	s := PaperFigureSchedule()
	// The instants the paper names must be present, and the attack onset
	// (182) must be probed at onset for zero-latency detection as
	// reported in Section 6.2.
	for _, k := range []int{15, 50, 175, 182} {
		if !s.Challenge(k) {
			t.Fatalf("paper schedule missing k=%d", k)
		}
	}
}

func TestLFSRScheduleRate(t *testing.T) {
	horizon := 4000
	s, err := NewLFSRSchedule(12, 99, 4, horizon)
	if err != nil {
		t.Fatal(err)
	}
	// Expected rate ~2^-4 = 0.0625; allow generous tolerance.
	r := s.Rate()
	if r < 0.03 || r > 0.11 {
		t.Fatalf("challenge rate = %v, want ~0.0625", r)
	}
	// Steps and Challenge must agree.
	for _, k := range s.Steps() {
		if !s.Challenge(k) {
			t.Fatalf("inconsistent schedule at %d", k)
		}
	}
	if s.Challenge(-1) || s.Challenge(horizon) {
		t.Fatal("out-of-horizon steps must not be challenges")
	}
}

func TestLFSRScheduleValidation(t *testing.T) {
	if _, err := NewLFSRSchedule(10, 1, 0, 100); err == nil {
		t.Fatal("width 0 should fail")
	}
	if _, err := NewLFSRSchedule(10, 1, 2, -1); err == nil {
		t.Fatal("negative horizon should fail")
	}
	if _, err := NewLFSRSchedule(2, 1, 2, 100); err == nil {
		t.Fatal("unsupported register length should fail")
	}
}

func TestLFSRScheduleDeterminism(t *testing.T) {
	a, _ := NewLFSRSchedule(11, 5, 3, 500)
	b, _ := NewLFSRSchedule(11, 5, 3, 500)
	for k := 0; k < 500; k++ {
		if a.Challenge(k) != b.Challenge(k) {
			t.Fatalf("schedules diverge at %d", k)
		}
	}
	c, _ := NewLFSRSchedule(11, 6, 3, 500)
	same := true
	for k := 0; k < 500; k++ {
		if a.Challenge(k) != c.Challenge(k) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}
