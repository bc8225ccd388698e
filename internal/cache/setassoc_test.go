package cache

// This file implements an executable set-associative cache with true-LRU
// replacement. It is not on the simulator's hot path: it exists to validate
// the analytic SharingModel against concrete address streams (tests replay
// synthetic working-set streams through both and compare miss-rate shapes).

import (
	"errors"
	"fmt"
)

// SetAssoc is a set-associative cache with LRU replacement.
type SetAssoc struct {
	sets       int
	ways       int
	lineBytes  int
	lineShift  uint
	setMask    uint64
	tags       []uint64 // sets*ways entries
	valid      []bool
	lastUse    []uint64 // per-way timestamp; smallest = LRU victim
	clock      uint64
	accesses   uint64
	misses     uint64
	evictions  uint64
	partitions map[int]struct{} // informational: distinct stream ids seen
}

// NewSetAssoc builds a cache of capacityBytes with the given associativity
// and line size. Capacity must be an exact multiple of ways × lineBytes and
// the resulting set count must be a power of two.
func NewSetAssoc(capacityBytes, ways, lineBytes int) (*SetAssoc, error) {
	if capacityBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, errors.New("cache: non-positive geometry")
	}
	if capacityBytes%(ways*lineBytes) != 0 {
		return nil, fmt.Errorf("cache: capacity %d not divisible by ways*line %d", capacityBytes, ways*lineBytes)
	}
	sets := capacityBytes / (ways * lineBytes)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	if lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d not a power of two", lineBytes)
	}
	shift := uint(0)
	for 1<<shift != lineBytes {
		shift++
	}
	c := &SetAssoc{
		sets:       sets,
		ways:       ways,
		lineBytes:  lineBytes,
		lineShift:  shift,
		setMask:    uint64(sets - 1),
		tags:       make([]uint64, sets*ways),
		valid:      make([]bool, sets*ways),
		lastUse:    make([]uint64, sets*ways),
		partitions: make(map[int]struct{}),
	}
	return c, nil
}

// Access references addr and returns true on hit. The address is a byte
// address; the line containing it is installed on miss.
func (c *SetAssoc) Access(addr uint64) bool {
	c.accesses++
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line >> uint(log2(c.sets))
	base := set * c.ways

	hitWay := -1
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			hitWay = w
			break
		}
	}
	c.clock++
	if hitWay >= 0 {
		c.lastUse[base+hitWay] = c.clock
		return true
	}
	c.misses++
	// Find victim: invalid way first, else least recently used.
	victim := -1
	for w := 0; w < c.ways; w++ {
		if !c.valid[base+w] {
			victim = w
			break
		}
	}
	if victim < 0 {
		oldest := c.lastUse[base]
		victim = 0
		for w := 1; w < c.ways; w++ {
			if c.lastUse[base+w] < oldest {
				oldest = c.lastUse[base+w]
				victim = w
			}
		}
		c.evictions++
	}
	c.tags[base+victim] = tag
	c.valid[base+victim] = true
	c.lastUse[base+victim] = c.clock
	return false
}

// AccessStream references every address in addrs and returns the number of
// misses, tagging the stream with id for bookkeeping (used when multiple
// threads interleave on one shared cache).
func (c *SetAssoc) AccessStream(id int, addrs []uint64) (misses uint64) {
	c.partitions[id] = struct{}{}
	before := c.misses
	for _, a := range addrs {
		c.Access(a)
	}
	return c.misses - before
}

// Stats returns cumulative access, miss and eviction counts.
func (c *SetAssoc) Stats() (accesses, misses, evictions uint64) {
	return c.accesses, c.misses, c.evictions
}

// MissRate returns misses/accesses, or 0 before any access.
func (c *SetAssoc) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Reset clears contents and statistics.
func (c *SetAssoc) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.lastUse[i] = 0
		c.tags[i] = 0
	}
	c.clock = 0
	c.accesses, c.misses, c.evictions = 0, 0, 0
	c.partitions = make(map[int]struct{})
}

// Geometry reports (sets, ways, lineBytes).
func (c *SetAssoc) Geometry() (sets, ways, lineBytes int) {
	return c.sets, c.ways, c.lineBytes
}

// CapacityBytes returns the total capacity.
func (c *SetAssoc) CapacityBytes() int { return c.sets * c.ways * c.lineBytes }

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}
