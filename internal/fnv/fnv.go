// Package fnv is the module's one FNV-1a fold: the loop every seed, digest,
// fingerprint and memo key hash in the module is built from, and the
// avalanche some of them finish with.
//
// Almost every fold begins at Start, 1469598103934665603, which is not FNV's
// 64-bit offset basis (OffsetBasis, 14695981039346656037) but that number
// with its last digit dropped. Any start value mixes as well. This one is
// kept because pinned outputs hash through it: the noise streams
// (noise.Fork), the task seeds (parallel.SeedFor), the simulated response
// factor, the fleet schedule digests, and the distributed-eval shard
// fingerprints, which a coordinator and workers built from different commits
// must agree on. recal.HashPhase is the one fold that starts at OffsetBasis.
package fnv

const (
	// Start is the start value of the module's folds (see the package doc).
	Start uint64 = 1469598103934665603
	// OffsetBasis is FNV's 64-bit offset basis.
	OffsetBasis uint64 = 14695981039346656037
	// Prime is FNV's 64-bit prime.
	Prime uint64 = 1099511628211
)

// String folds the bytes of s into h.
func String(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * Prime
	}
	return h
}

// Bytes folds b into h.
func Bytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * Prime
	}
	return h
}

// Word folds v into h in one step, as a single 64-bit "byte".
func Word(h, v uint64) uint64 {
	return (h ^ v) * Prime
}

// WordBytes folds the eight bytes of v into h, least significant first.
func WordBytes(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h = (h ^ (v>>s)&0xff) * Prime
	}
	return h
}

// Avalanche mixes h so that every output bit depends on every input bit:
// the first round of MurmurHash3's fmix64 finaliser. It is a bijection, so
// it moves no collision.
func Avalanche(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
