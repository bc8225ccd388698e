package actor

import (
	"fmt"
	"strconv"
)

// This file is the wire contract of distributed sweep evaluation: the
// /v1/eval payload a coordinator (internal/dist, cmd/actorctl) posts to a
// worker actord, and the shard fingerprint that makes delivery idempotent.
//
// A distributed run partitions the engine's canonical workload — the
// (benchmark, phase) unit list returned by Engine.Workload — into shards.
// Each shard names its slice of units plus the platform identity (topology
// descriptor, seed, bank format version) the coordinator evaluated it
// against, so a worker serving a different bank rejects the shard instead
// of silently answering for the wrong machine. Results are deterministic:
// any worker with the same platform identity returns bit-identical rows,
// which is what lets the coordinator retry, hedge and re-deliver freely.

// ShardSpec identifies one shard of a distributed sweep.
type ShardSpec struct {
	// Index is the shard's position in the canonical partition order; the
	// coordinator merges results by this index regardless of arrival order.
	Index int `json:"index"`
	// Total is the number of shards in the partition.
	Total int `json:"total"`
	// Fingerprint is ShardFingerprint over the platform identity and the
	// shard's unit list — the idempotency key for re-delivery, and an
	// end-to-end integrity check on the request.
	Fingerprint string `json:"fingerprint"`
}

// EvalRequest is the /v1/eval payload: one shard of a distributed sweep.
type EvalRequest struct {
	// Topology is the coordinator's topology descriptor; the worker rejects
	// the shard unless it matches its own engine's platform.
	Topology string `json:"topology,omitempty"`
	// Seed is the platform seed (the bank's training seed).
	Seed int64 `json:"seed"`
	// BankVersion is the bank serialization format version the coordinator
	// expects the worker to serve.
	BankVersion int `json:"bank_version"`
	// Shard locates this request within the partition.
	Shard ShardSpec `json:"shard"`
	// Units are the (benchmark, phase) work items of this shard, in
	// canonical workload order.
	Units []SweepRequest `json:"units"`
}

// EvalResponse is the /v1/eval reply: one PhaseSweep per unit, in unit
// order, echoing the shard fingerprint so hedged duplicates can be matched
// to their shard by content rather than by connection.
type EvalResponse struct {
	Fingerprint string       `json:"fingerprint"`
	Sweeps      []PhaseSweep `json:"sweeps"`
}

// ShardFingerprint derives a shard's stable identity: FNV-1a's byte loop and
// prime over the platform identity (topology descriptor, seed) and the unit
// list, from the start value 1469598103934665603 — not FNV's 64-bit offset
// basis (14695981039346656037), but kept, because a coordinator and its
// workers must agree on it even when built from different commits. The same
// (platform, units) pair always yields the same fingerprint, independent of
// shard index or worker — it is the key duplicate deliveries and hedged
// responses are deduplicated by.
func ShardFingerprint(topology string, seed int64, units []SweepRequest) string {
	h := uint64(1469598103934665603)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= 0xff // field separator so ("ab","c") != ("a","bc")
		h *= 1099511628211
	}
	mix(topology)
	mix(strconv.FormatInt(seed, 10))
	for _, u := range units {
		mix(u.Bench)
		for _, p := range u.Phases {
			mix(p)
		}
	}
	return strconv.FormatUint(h, 16)
}

// Fingerprint computes the request's expected shard fingerprint from its
// own platform identity and units.
func (r *EvalRequest) Fingerprint() string {
	return ShardFingerprint(r.Topology, r.Seed, r.Units)
}

// Workload returns the canonical unit list of the engine's full sweep
// workload: one single-phase SweepRequest per (benchmark, phase), benchmarks
// in suite order, phases in program order. Concatenating per-unit sweep
// results in this order is byte-identical to sweeping every benchmark
// in-process — the invariant distributed evaluation is built on.
func (e *Engine) Workload() []SweepRequest {
	var units []SweepRequest
	for _, b := range e.suite.Benches {
		for pi := range b.Phases {
			units = append(units, SweepRequest{Bench: b.Name, Phases: []string{b.Phases[pi].Name}})
		}
	}
	return units
}

// Seed returns the seed the engine's platform was built with.
func (e *Engine) Seed() int64 { return e.cfg.seed }

// validateEval checks an EvalRequest against the serving platform; the
// returned error is a client error (HTTP 400/409 class).
func (s *Server) validateEval(req *EvalRequest) error {
	if len(req.Units) == 0 {
		return fmt.Errorf(`bad payload: "units" is required and must be non-empty`)
	}
	// A shard names at most len(Workload()) units, which every shard a
	// partition of the workload fits under. Without the cap a body under
	// maxRequestBody could repeat one unit tens of thousands of times and
	// buy a reply hundreds of times its size.
	workload := 0
	for _, b := range s.eng.suite.Benches {
		workload += len(b.Phases)
	}
	if len(req.Units) > workload {
		return fmt.Errorf(`bad payload: "units" names %d units, the workload has %d`, len(req.Units), workload)
	}
	meta := s.Bank().Meta()
	if req.Topology != s.eng.TopologyDesc() {
		return fmt.Errorf("shard was partitioned for topology %q, this worker serves %q",
			describeDesc(req.Topology), describeDesc(s.eng.TopologyDesc()))
	}
	if req.Seed != meta.Seed {
		return fmt.Errorf("shard was partitioned for seed %d, this worker's bank was trained with seed %d",
			req.Seed, meta.Seed)
	}
	if req.BankVersion != 0 && req.BankVersion != meta.Version {
		return fmt.Errorf("shard expects bank format version %d, this worker serves version %d",
			req.BankVersion, meta.Version)
	}
	if want := req.Fingerprint(); req.Shard.Fingerprint != want {
		return fmt.Errorf("shard fingerprint %q does not match its contents (want %s): corrupt or truncated delivery",
			req.Shard.Fingerprint, want)
	}
	return nil
}
