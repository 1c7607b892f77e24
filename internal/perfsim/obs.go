package perfsim

import "repro/internal/obs"

// Metric names exported to the process-default obs registry.
const (
	// obsQueueDepth is a histogram of the shared channel's backlog —
	// whole transfers queued ahead of each new miss — observed at
	// enqueue time. It is the empirical face of the paper's §1 queueing
	// mechanism: as cores outrun the channel the distribution's mass
	// migrates out of the low buckets.
	obsQueueDepth = "perfsim.queue_depth"
	// obsBusyCycles counts channel-busy cycles: the total service time
	// scheduled on the off-chip channel. Compare against a run's total
	// cycles for effective utilization across experiments.
	obsBusyCycles = "perfsim.channel_busy_cycles"
)

// queueDepthBuckets spans idle (0 ahead) through deep collapse. Powers
// of two because backlog grows multiplicatively with overcommit.
var queueDepthBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// simObs holds the instruments Run writes to; zero value when disabled.
type simObs struct {
	queueDepth *obs.Histogram
	busyCycles *obs.Counter
}

// newSimObs fetches instruments from reg (Run passes the process-default
// registry) once per Run call.
func newSimObs(reg *obs.Registry) simObs {
	if reg == nil {
		return simObs{}
	}
	return simObs{
		queueDepth: reg.Histogram(obsQueueDepth, queueDepthBuckets),
		busyCycles: reg.Counter(obsBusyCycles),
	}
}

// RegisterObs pre-creates this package's instruments in reg so metric
// dumps have a stable shape even for runs that never simulate.
func RegisterObs(reg *obs.Registry) { newSimObs(reg) }
