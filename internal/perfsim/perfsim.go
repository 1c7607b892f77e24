// Package perfsim is a cycle-driven CMP performance simulator: cores
// execute instructions, a fraction of which miss the on-chip caches and
// queue on a shared off-chip channel of fixed bandwidth. It grounds the
// paper's §1 mechanism empirically — "extra queuing delay for memory
// requests will force the performance of the cores to decline until the
// rate of memory requests matches the available off-chip bandwidth" — and
// cross-checks the analytical knee (memsys.KneeCores) against a simulation
// that contains an actual queue.
package perfsim

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// Config describes the simulated chip.
type Config struct {
	// Cores on the chip, each single-threaded (§3's assumption).
	Cores int
	// MissEvery is the mean number of instructions between off-chip
	// misses per core (the reciprocal of miss rate × memory-op share).
	MissEvery float64
	// LineBytes is the transfer size per miss.
	LineBytes int
	// ChannelBytesPerCycle is the off-chip channel's peak bandwidth.
	ChannelBytesPerCycle float64
	// MemLatencyCycles is the unloaded memory latency (paid by every miss
	// in addition to queueing and transfer).
	MemLatencyCycles int
	// Seed makes miss arrivals reproducible.
	Seed uint64
}

// Validate reports whether the configuration is physical.
func (c Config) Validate() error {
	switch {
	case c.Cores < 1 || c.Cores > 4096:
		return fmt.Errorf("perfsim: cores must be in [1, 4096], got %d", c.Cores)
	case !(c.MissEvery >= 1):
		return fmt.Errorf("perfsim: MissEvery must be ≥ 1, got %g", c.MissEvery)
	case c.LineBytes <= 0:
		return fmt.Errorf("perfsim: line size must be positive, got %d", c.LineBytes)
	case !(c.ChannelBytesPerCycle > 0):
		return fmt.Errorf("perfsim: channel bandwidth must be positive, got %g", c.ChannelBytesPerCycle)
	case c.MemLatencyCycles < 0:
		return fmt.Errorf("perfsim: memory latency must be non-negative, got %d", c.MemLatencyCycles)
	}
	return nil
}

// Result summarizes a simulation.
type Result struct {
	Cycles       uint64
	Instructions uint64
	Misses       uint64
	// StallCycles sums cycles cores spent blocked on memory.
	StallCycles uint64
	// BytesMoved is the total off-chip transfer volume.
	BytesMoved uint64
}

// IPC returns aggregate instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// ChannelUtilization returns the fraction of channel capacity used.
func (r Result) ChannelUtilization(c Config) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.BytesMoved) / (float64(r.Cycles) * c.ChannelBytesPerCycle)
}

// AvgStallPerMiss returns the mean stall, in cycles, per off-chip miss.
func (r Result) AvgStallPerMiss() float64 {
	if r.Misses == 0 {
		return 0
	}
	return float64(r.StallCycles) / float64(r.Misses)
}

// core is one simulated core's state.
type core struct {
	readyAt  uint64  // cycle at which the core resumes execution
	nextMiss float64 // instructions until the next miss
	rng      uint64
	instrs   uint64
}

// Run simulates `cycles` chip cycles and returns aggregate results. The
// model: each core retires one instruction per cycle while running; when
// its geometric miss countdown expires it issues a line transfer, waits
// MemLatencyCycles plus its queueing delay on the shared channel, then
// resumes. The channel serves requests FIFO at ChannelBytesPerCycle.
func Run(cfg Config, cycles uint64) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cycles == 0 {
		return Result{}, fmt.Errorf("perfsim: need at least one cycle")
	}
	cores := make([]core, cfg.Cores)
	for i := range cores {
		cores[i].rng = cfg.Seed*2654435761 + uint64(i)*0x9e3779b97f4a7c15 + 1
		cores[i].nextMiss = geometric(&cores[i].rng, cfg.MissEvery)
	}
	serviceCycles := float64(cfg.LineBytes) / cfg.ChannelBytesPerCycle
	var res Result
	ob := newSimObs(obs.Default())
	busy := 0.0 // total service time scheduled on the channel
	// channelFree is the cycle at which the channel next becomes idle
	// (FIFO service, fractional cycles accumulated exactly).
	channelFree := 0.0
	for t := uint64(0); t < cycles; t++ {
		for i := range cores {
			c := &cores[i]
			if c.readyAt > t {
				res.StallCycles++
				continue
			}
			// Execute one instruction.
			c.instrs++
			c.nextMiss--
			if c.nextMiss > 0 {
				continue
			}
			// Miss: queue a transfer on the shared channel.
			c.nextMiss = geometric(&c.rng, cfg.MissEvery)
			res.Misses++
			res.BytesMoved += uint64(cfg.LineBytes)
			start := float64(t)
			if channelFree > start {
				start = channelFree
			}
			if ob.queueDepth != nil {
				// Backlog ahead of this request, in whole transfers.
				ob.queueDepth.Observe((start - float64(t)) / serviceCycles)
			}
			busy += serviceCycles
			channelFree = start + serviceCycles
			c.readyAt = uint64(channelFree) + uint64(cfg.MemLatencyCycles)
		}
	}
	res.Cycles = cycles
	for i := range cores {
		res.Instructions += cores[i].instrs
	}
	ob.busyCycles.Add(uint64(busy + 0.5))
	return res, nil
}

// geometric draws an instruction count until the next miss from a
// geometric-ish distribution with the given mean, via xorshift.
func geometric(state *uint64, mean float64) float64 {
	x := *state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*state = x
	// Inverse-CDF of an exponential, quantized to ≥1 instruction.
	u := float64(x%(1<<52)) / (1 << 52)
	if u <= 0 {
		u = 0.5 / (1 << 52)
	}
	d := -mean * math.Log(u)
	if d < 1 {
		d = 1
	}
	return d
}
