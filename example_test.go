package safesense_test

import (
	"fmt"

	"safesense"
)

// ExampleRun reproduces the paper's headline result: the Figure 2a DoS
// attack is detected at its onset with no false positives or negatives,
// and the RLS estimator carries the vehicle safely through the attack.
func ExampleRun() {
	res, err := safesense.Run(safesense.Fig2aDoS())
	if err != nil {
		panic(err)
	}
	fmt.Println("detected at:", res.DetectedAt)
	fmt.Println("false positives:", res.Accuracy.FalsePositives)
	fmt.Println("false negatives:", res.Accuracy.FalseNegatives)
	fmt.Println("estimates delivered:", res.EstimateSteps)
	fmt.Println("collision:", res.CollisionAt >= 0)
	// Output:
	// detected at: 182
	// false positives: 0
	// false negatives: 0
	// estimates delivered: 119
	// collision: false
}

// ExampleJammer_Succeeds evaluates the Eqn 11 jamming success condition at
// the case-study range.
func ExampleJammer_Succeeds() {
	p := safesense.BoschLRR2()
	j := safesense.PaperJammer()
	fmt.Printf("ratio at 100 m: %.1e\n", j.PowerRatio(p, 100))
	fmt.Println("attack succeeds:", j.Succeeds(p, 100))
	// Output:
	// ratio at 100 m: 5.2e-04
	// attack succeeds: true
}

// ExampleRadarParams_BeatFrequencies shows the FMCW beat-frequency mapping
// of Eqns 5–8 and its inversion.
func ExampleRadarParams_BeatFrequencies() {
	p := safesense.BoschLRR2()
	fbUp, fbDown := p.BeatFrequencies(100, -1.5)
	d, v := p.FromBeats(fbUp, fbDown)
	fmt.Printf("d = %.1f m, dv = %.2f m/s\n", d, v)
	// Output:
	// d = 100.0 m, dv = -1.50 m/s
}

// ExampleNewRLS runs Algorithm 1 directly on a static linear model.
func ExampleNewRLS() {
	r, err := safesense.NewRLS(1.0, 1e6)
	if err != nil {
		panic(err)
	}
	// y = 3*h0 - 2*h1.
	inputs := [][2]float64{{1, 0}, {0, 1}, {1, 1}, {2, 1}, {1, 3}}
	for _, h := range inputs {
		r.Update(h, 3*h[0]-2*h[1])
	}
	w := r.Weights()
	fmt.Printf("w = [%.3f %.3f]\n", w[0], w[1])
	// Output:
	// w = [3.000 -2.000]
}
