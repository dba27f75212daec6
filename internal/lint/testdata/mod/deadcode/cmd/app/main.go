// Command app is the fixture's program entry point.
package main

import (
	"deadcode/internal/lib"
	"deadcode/internal/other"
)

func main() {
	_ = other.Twice(lib.Used())
	_ = (&lib.Box[int]{}).Get()
}
