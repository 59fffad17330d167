// Package cache models the cache that filters CPU accesses before they
// reach the memory controller. In production it is each core's private
// L1 (cpu.CPUConfig: 64 KB, 8-way); cpu.Config can also add a shared
// level behind it, but CPUConfig has no LLC. Only external accesses
// (misses) matter to SDAM, but modeling the filter matters for
// realistic miss streams: it is why CPU workloads show smaller gains
// than accelerators, which have little or no cache in front of memory
// (paper §7.4, near-data acceleration discussion).
package cache

import (
	"fmt"

	"repro/internal/geom"
)

// dirtyBit marks a modified line in an entry word.
const dirtyBit = 1 << 63

// Cache is a set-associative, physically-tagged cache with LRU
// replacement at cache-line granularity. Not safe for concurrent use.
//
// All sets live in one word array: set s is words[s*ways : (s+1)*ways],
// kept in recency order, most recent first. A word holds line+1 (0 is
// an invalid way) with the dirty flag in bit 63, so lines must be
// below 2^63-1 — physical line addresses are far smaller. Nothing
// invalidates a single way, so invalid ways are always the tail of a
// set and the tail word is always the LRU victim.
type Cache struct {
	words      []uint64
	ways       int
	mask       uint64 // sets-1; sets is a power of two
	hits       uint64
	misses     uint64
	writebacks uint64
}

// New creates a cache of the given total size and associativity.
func New(sizeBytes, ways int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 {
		return nil, fmt.Errorf("cache: size %d / ways %d invalid", sizeBytes, ways)
	}
	lines := sizeBytes / geom.LineBytes
	if lines%ways != 0 || lines/ways == 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible into %d ways", lines, ways)
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return &Cache{words: make([]uint64, lines), ways: ways, mask: uint64(sets - 1)}, nil
}

// MustNew is New for static configurations.
func MustNew(sizeBytes, ways int) *Cache {
	c, err := New(sizeBytes, ways)
	if err != nil {
		panic(err)
	}
	return c
}

// Access looks up a line, filling it on miss, and reports whether it
// hit.
//
//sdam:noalloc
func (c *Cache) Access(line geom.LineAddr) bool {
	hit, _, _ := c.AccessDirty(line, false)
	return hit
}

// AccessDirty is Access with write-back modeling: dirty marks the line
// modified on this access, and when a miss evicts a dirty line the
// victim's address is returned with evicted=true so the caller can issue
// the write-back to memory.
//
//sdam:noalloc
func (c *Cache) AccessDirty(line geom.LineAddr, dirty bool) (hit bool, victim geom.LineAddr, evicted bool) {
	base := int(uint64(line)&c.mask) * c.ways
	set := c.words[base : base+c.ways : base+c.ways]
	tag := uint64(line) + 1
	var d uint64
	if dirty {
		d = dirtyBit
	}
	for w, e := range set {
		if e&^dirtyBit == tag {
			// Hit: move the line to the front, keeping its dirty bit.
			for ; w > 0; w-- {
				set[w] = set[w-1]
			}
			set[0] = e | d
			c.hits++
			return true, 0, false
		}
	}
	// Miss: the tail is the invalid or least-recently-used way. Only a
	// valid word can carry the dirty bit.
	c.misses++
	if tail := set[len(set)-1]; tail&dirtyBit != 0 {
		victim, evicted = geom.LineAddr(tail&^dirtyBit-1), true
		c.writebacks++
	}
	for w := len(set) - 1; w > 0; w-- {
		set[w] = set[w-1]
	}
	set[0] = tag | d
	return false, victim, evicted
}

// Reset invalidates all lines and clears counters.
func (c *Cache) Reset() {
	clear(c.words)
	c.hits, c.misses, c.writebacks = 0, 0, 0
}

// Writebacks returns how many dirty victims were evicted.
func (c *Cache) Writebacks() uint64 { return c.writebacks }

// Hits returns the hit count.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the miss count.
func (c *Cache) Misses() uint64 { return c.misses }

// HitRate returns hits/(hits+misses).
func (c *Cache) HitRate() float64 {
	t := c.hits + c.misses
	if t == 0 {
		return 0
	}
	return float64(c.hits) / float64(t)
}

// SizeBytes returns the cache capacity.
func (c *Cache) SizeBytes() int { return len(c.words) * geom.LineBytes }
