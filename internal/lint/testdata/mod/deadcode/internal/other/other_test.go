package other

import (
	"testing"

	"deadcode/internal/lib"
)

func TestTwiceOracle(t *testing.T) {
	if Twice(lib.CrossTestOracle()) != 6 {
		t.Fatal("Twice")
	}
}
