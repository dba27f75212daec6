package obs

import "testing"

func TestVCSRevisionDoesNotPanic(t *testing.T) {
	// Test binaries usually carry no VCS stamp; the call must still be
	// safe and return a plain string.
	_ = VCSRevision()
}

func TestHostEqualIgnoresHostname(t *testing.T) {
	a := ReadHost()
	b := a
	b.Hostname = a.Hostname + "-other"
	if !a.Equal(b) {
		t.Fatalf("hosts differing only by name compare unequal: %+v vs %+v", a, b)
	}
	b.CPUs = a.CPUs + 1
	if a.Equal(b) {
		t.Fatal("hosts with different CPU counts compare equal")
	}
}
