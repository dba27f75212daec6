// Command app is the fixture's program entry point: it keeps the
// scenario pipeline reachable, so only the two transitive findings
// remain.
package main

import "transitive/internal/sim"

func main() {
	_ = sim.Step([]float64{1, 2})
	_ = sim.Record(0)
}
