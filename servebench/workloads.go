package main

import (
	"encoding/json"
	"math/rand"

	"safesense/internal/campaign"
)

// workload is one traffic mix. Every workload is a closed loop: each
// client sends its next operation only after the previous one returned.
type workload struct {
	name string
	// signal selects the signal-level radar for /v1/run requests.
	signal bool
	// campaign drives sweeps instead of single runs; dist sends them to
	// the coordinator, which leases them to one joined worker process.
	campaign, dist bool
}

func (w workload) runs() bool { return !w.campaign }

var workloads = []workload{
	{name: "run_closed_form"},
	{name: "run_signal", signal: true},
	{name: "campaign_sweep", campaign: true},
	{name: "campaign_dist", campaign: true, dist: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// figurePoints are the paper's Fig 2a, 2b, 3a and 3b operating points:
// DoS and delay injection under the constant and the phased leader,
// attack onset at the k = 182 challenge instant.
var figurePoints = []campaign.Point{
	{Attack: campaign.AttackDoS, Leader: campaign.LeaderConst, JammerMW: 100},
	{Attack: campaign.AttackDelay, Leader: campaign.LeaderConst, OffsetM: 6},
	{Attack: campaign.AttackDoS, Leader: campaign.LeaderPhased, JammerMW: 100},
	{Attack: campaign.AttackDelay, Leader: campaign.LeaderPhased, OffsetM: 6},
}

// paperDetectionStep is where every figure point must be flagged.
const paperDetectionStep = 182

// runStream is a /v1/run request stream: the figure points in turn, each
// with a fresh seed from the workload seed.
type runStream struct {
	points []campaign.Point
	bodies [][]byte
}

// newRunStream pre-builds n requests so the load generator only sends.
func newRunStream(seed int64, signal bool, n int) *runStream {
	rng := rand.New(rand.NewSource(seed))
	rs := &runStream{points: make([]campaign.Point, n), bodies: make([][]byte, n)}
	for i := range rs.points {
		p := figurePoints[i%len(figurePoints)]
		p.Schedule = campaign.ScheduleSpec{Kind: "paper"}
		p.Onset = paperDetectionStep
		p.Steps = 301
		p.Defended = true
		p.SignalLevel = signal
		p.Seed = rng.Int63n(1<<53) + 1
		rs.points[i] = p
		// campaign.Point is the request body of /v1/run (its fields are
		// embedded in the service's RunRequest).
		body, err := json.Marshal(p)
		if err != nil {
			panic(err) // a Point always marshals
		}
		rs.bodies[i] = body
	}
	return rs
}

// campaignSpec is the sweep both campaign workloads submit: const and
// phased leaders × DoS and delay × onsets 175, 178 and 182, 84 seeds per
// point (1008 jobs). Onset 178 is off the challenge schedule, so some of
// its runs collide and the engine writes forensic captures.
func campaignSpec(seed int64) campaign.Spec {
	return campaign.Spec{
		Name:       "servebench",
		Steps:      301,
		BaseSeed:   seed,
		Replicates: 84,
		Attacks:    []string{campaign.AttackDoS, campaign.AttackDelay},
		Leaders:    []string{campaign.LeaderConst, campaign.LeaderPhased},
		Onsets:     []int{175, 178, 182},
	}
}

// leaseJobs is the coordinator's shard size on campaign_dist.
const leaseJobs = 16
