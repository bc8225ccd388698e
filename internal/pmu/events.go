// Package pmu models the hardware performance monitoring unit of the
// paper's platform: a Core-2-class PMU that can program only **two** event
// counters simultaneously (CounterWidth), forcing ACTOR to rotate event
// pairs across timesteps to collect its twelve-event feature vector (the
// paper's "collection across multiple timesteps").
//
// The package provides the event catalogue, the programmable counter file,
// the rotation scheduler with the paper's 20%-of-iterations sampling budget
// (MaxSampleFraction), and the reduced event sets used for short-iteration
// applications (FT, IS, MG in the paper).
//
// Counts and Rates are fixed-size vectors indexed by Event; Rates, the one
// form of the sampled feature vector from the sampler to the serving path,
// also carries the set of events that were measured.
package pmu

import "fmt"

// Event identifies a hardware performance event.
type Event int

// The event catalogue mirrors the Core-2 events PAPI 3.5 exposes for cache
// and bus behaviour — the "collection that represent performance-critical
// resources" the paper selects — plus the fixed instruction/cycle counts
// needed to form rates and IPC.
const (
	// Instructions and Cycles are conceptually fixed counters: retired
	// instruction count and unhalted core cycles. They are always
	// collected (the time-stamp counter and retirement counters are free)
	// and every other event is normalised by Cycles to form a rate.
	Instructions Event = iota
	Cycles

	// Programmable events, two at a time.
	L1DReferences  // L1 data cache references (loads+stores reaching L1D)
	L1DMisses      // L1D replacement fills (misses to the L2 group)
	L2References   // L2 requests from this core
	L2Misses       // L2 lines brought in from the bus (capacity+cold)
	BusTransMem    // memory transactions on the FSB attributable to core
	BusDrdyClocks  // bus data-ready clocks: occupancy of the FSB
	LoadsRetired   // retired load instructions
	StoresRetired  // retired store instructions
	BranchesRet    // retired branch instructions
	BranchMisses   // mispredicted branches
	DTLBMisses     // data TLB misses
	ResourceStalls // cycles stalled for ROB/RS/store-buffer resources

	numEvents
)

// NumEvents is the total number of defined events, including the fixed
// Instructions and Cycles counters.
const NumEvents = int(numEvents)

var eventNames = [...]string{
	Instructions:   "INST_RETIRED",
	Cycles:         "CPU_CLK_UNHALTED",
	L1DReferences:  "L1D_ALL_REF",
	L1DMisses:      "L1D_REPL",
	L2References:   "L2_RQSTS",
	L2Misses:       "L2_LINES_IN",
	BusTransMem:    "BUS_TRANS_MEM",
	BusDrdyClocks:  "BUS_DRDY_CLOCKS",
	LoadsRetired:   "INST_RETIRED_LOADS",
	StoresRetired:  "INST_RETIRED_STORES",
	BranchesRet:    "BR_INST_RETIRED",
	BranchMisses:   "BR_MISSP_RETIRED",
	DTLBMisses:     "DTLB_MISSES",
	ResourceStalls: "RESOURCE_STALLS",
}

// String returns the PAPI-style mnemonic of the event.
func (e Event) String() string {
	if e < 0 || int(e) >= NumEvents {
		return fmt.Sprintf("Event(%d)", int(e))
	}
	return eventNames[e]
}

// EventByName returns the event with the given PAPI-style mnemonic.
func EventByName(name string) (Event, bool) {
	for e := Event(0); int(e) < NumEvents; e++ {
		if eventNames[e] == name {
			return e, true
		}
	}
	return 0, false
}

// Programmable reports whether the event needs one of the two programmable
// counters (true for everything except Instructions and Cycles).
func (e Event) Programmable() bool {
	return e != Instructions && e != Cycles
}

// FullEventSet returns the paper's twelve programmable cache/bus events in
// priority order (most informative first, as used when the sampling budget
// forces truncation).
func FullEventSet() []Event {
	return []Event{
		L2Misses, BusTransMem, L1DMisses, L2References,
		BusDrdyClocks, ResourceStalls, LoadsRetired, StoresRetired,
		DTLBMisses, BranchesRet, BranchMisses, L1DReferences,
	}
}

// ReducedEventSet returns the truncated event list fitting within
// maxPairs rotation rounds (CounterWidth events per round). The paper uses
// reduced sets for applications with few iterations (FT, IS, MG) so that
// sampling stays under MaxSampleFraction of execution.
func ReducedEventSet(maxPairs int) []Event {
	full := FullEventSet()
	n := maxPairs * CounterWidth
	if n >= len(full) {
		return full
	}
	if n < CounterWidth {
		n = CounterWidth
	}
	return full[:n]
}

// Counts is a single sampling observation: raw event counts accumulated
// over one measured interval, indexed by Event. It is a fixed-size array
// rather than a map so that producing, copying and perturbing counts in the
// machine model's hot path allocates nothing; an event the hardware did not
// measure simply reads zero.
type Counts [NumEvents]float64

// Mask is a set of events: bit e is set when Event e is in the set.
type Mask uint32

const _ Mask = 1 << (NumEvents - 1) // fails to compile once events outgrow Mask

// MaskOf returns the set of the given events.
func MaskOf(events []Event) Mask {
	var m Mask
	for _, e := range events {
		m |= 1 << uint(e)
	}
	return m
}

// Rates is a vector of per-cycle event rates, indexed by Event, with the
// set of events it carries: V[Instructions] is IPC. Like Counts it is a
// fixed-size value, so producing, copying and reading it allocates
// nothing; an event not in Has reads zero.
type Rates struct {
	V   [NumEvents]float64
	Has Mask
}

// Set records the rate of e.
func (r *Rates) Set(e Event, v float64) {
	r.V[e] = v
	r.Has |= 1 << uint(e)
}

// Get returns the rate of e and whether r carries it.
func (r *Rates) Get(e Event) (float64, bool) {
	return r.V[e], r.Has&(1<<uint(e)) != 0
}

// VectorInto writes the feature vector [IPC, events...] for the given
// programmable event list into dst (grown if too small) and returns the
// filled slice. Missing events yield zeros (the model treats unmeasured
// features as average after normalisation).
func (r *Rates) VectorInto(dst []float64, events []Event) []float64 {
	n := 1 + len(events)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	dst[0] = r.V[Instructions]
	for i, e := range events {
		dst[1+i] = r.V[e]
	}
	return dst
}
