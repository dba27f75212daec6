package lib

import "testing"

func TestOwnTestOnly(t *testing.T) {
	if OwnTestOnly() != 6 {
		t.Fatal("OwnTestOnly")
	}
}
