// Package cache models one node's coherent cache domain: a set-
// associative write-back cache per socket with MESI coherence between
// them. This is the *intra-node* protocol the paper keeps; the system's
// whole point is that it never extends beyond the motherboard, however
// much remote memory a region aggregates.
//
// The prototype configures remote (RMC-mapped) ranges write-back
// cacheable, which is why remote lines flow through the same hierarchy —
// and why, with no inter-node coherency, writable remote data restricts
// the application to one core unless a phase is read-only (after a
// flush). FlushAll models exactly that phase transition.
package cache

import (
	"fmt"

	"repro/internal/addr"
)

// State is a MESI line state.
type State uint8

// MESI states.
const (
	// Invalid marks an absent or invalidated line.
	Invalid State = iota
	// Shared lines may be cached read-only by several sockets.
	Shared
	// Exclusive lines are cached by one socket, clean.
	Exclusive
	// Modified lines are cached by one socket, dirty.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Config sizes one socket's cache.
type Config struct {
	// Sets and Ways give the geometry; capacity = Sets*Ways*LineSize.
	Sets, Ways int
	// LineSize is the coherence granule in bytes (a power of two).
	LineSize uint64
}

// DefaultConfig returns a 512 KiB 8-way cache with 64 B lines per socket,
// an Opteron-era L2 stand-in.
func DefaultConfig() Config { return Config{Sets: 1024, Ways: 8, LineSize: 64} }

// Validate reports the first inconsistency in the configuration.
func (c Config) Validate() error {
	switch {
	case c.Sets < 1 || c.Ways < 1:
		return fmt.Errorf("cache: geometry %dx%d invalid", c.Sets, c.Ways)
	case c.LineSize == 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache: line size %d not a power of two", c.LineSize)
	}
	return nil
}

// socketCache is one socket's set-associative array, held as
// structure-of-arrays: parallel tag, state and LRU slices, each
// set-major with ways entries per set. A lookup scans only the set's
// tags (one 64-byte host cache line at 8 ways) and reads a state only
// on a tag match, so the sibling probes a remote miss sends stay cheap.
// Every socket of a node shares one geometry, so the Hierarchy maps a
// line to its set once and hands each socket the set's first slot.
type socketCache struct {
	ways   int
	tags   []addr.Phys // line-aligned addresses (tags keep the node prefix)
	states []State
	lrus   []uint64
	clock  uint64
}

// minStateCap is the smallest capacity newSocketCaches gives the state
// array. A node's 32 KiB state array (one byte per way) is otherwise
// served from the Go runtime's per-P page cache in between the large
// tag and LRU arrays, and those then land on pages the runtime must
// zero first: a fresh process building the 16×16 cluster measured
// about 20% slower than with the array-of-structs layout. From 128 KiB
// up, all three arrays are large allocations on fresh pages. The
// padding is address space only; pages nothing writes stay unbacked.
const minStateCap = 128 << 10

// newSocketCaches builds a node's sockets over three shared backing
// arrays, one per field, so a node costs the same handful of
// allocations however many sockets it has.
func newSocketCaches(sockets int, cfg Config) []*socketCache {
	n := cfg.Sets * cfg.Ways
	tags := make([]addr.Phys, sockets*n)
	states := make([]State, sockets*n, max(sockets*n, minStateCap))
	lrus := make([]uint64, sockets*n)
	caches := make([]socketCache, sockets)
	out := make([]*socketCache, sockets)
	for i := range caches {
		lo, hi := i*n, (i+1)*n
		caches[i] = socketCache{ways: cfg.Ways, tags: tags[lo:hi:hi], states: states[lo:hi:hi], lrus: lrus[lo:hi:hi]}
		out[i] = &caches[i]
	}
	return out
}

// find returns the slot holding tag in the set starting at slot b, or
// -1. An invalidated way keeps its stale tag, so a tag match still
// needs a valid state.
func (c *socketCache) find(b int, tag addr.Phys) int {
	for i, t := range c.tags[b : b+c.ways] {
		if t == tag && c.states[b+i] != Invalid {
			return b + i
		}
	}
	return -1
}

// victim returns the slot to fill in the set starting at slot b: an
// invalid way if any, else the least recently used.
func (c *socketCache) victim(b int) int {
	for i, st := range c.states[b : b+c.ways] {
		if st == Invalid {
			return b + i
		}
	}
	best, bestLRU := b, c.lrus[b]
	for i, lru := range c.lrus[b+1 : b+c.ways] {
		if lru < bestLRU {
			best, bestLRU = b+1+i, lru
		}
	}
	return best
}

// fill puts tag into slot i in the given state as the most recently
// used way of its set.
func (c *socketCache) fill(i int, tag addr.Phys, st State) {
	c.tags[i], c.states[i] = tag, st
	c.touch(i)
}

func (c *socketCache) touch(i int) {
	c.clock++
	c.lrus[i] = c.clock
}

// Result describes what one access did, for the timing layer to price.
type Result struct {
	// Hit reports whether the line was already present in the issuing
	// socket's cache in a sufficient state.
	Hit bool
	// Probes counts coherence probes sent to other sockets' caches
	// (invalidations or downgrade snoops).
	Probes int
	// Writebacks counts dirty lines pushed back to memory (evictions and
	// M-line downgrades).
	Writebacks int
	// State is the line's state in the issuing cache afterwards.
	State State
	// Victim is the line evicted from the issuing cache to make room, if
	// VictimDirty or Victim != 0; a dirty victim must be written back to
	// its owning memory (local controller or, for remote lines, the RMC).
	Victim      addr.Phys
	VictimDirty bool
}

// Hierarchy is the coherent domain of one node: one cache per socket,
// MESI between them. It is deliberately *not* aware of other nodes.
type Hierarchy struct {
	cfg     Config
	sockets []*socketCache

	// Accesses, Hits, Misses, Probes, Writebacks, and Installs are
	// running totals (Installs are prefetch fills).
	Accesses, Hits, Misses, Probes, Writebacks, Installs uint64
}

// NewHierarchy builds a node's cache domain with one cache per socket.
func NewHierarchy(sockets int, cfg Config) (*Hierarchy, error) {
	if sockets < 1 {
		return nil, fmt.Errorf("cache: %d sockets", sockets)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg, sockets: newSocketCaches(sockets, cfg)}
	return h, nil
}

// Sockets returns the number of caches in the domain.
func (h *Hierarchy) Sockets() int { return len(h.sockets) }

// LineSize returns the coherence granule.
func (h *Hierarchy) LineSize() uint64 { return h.cfg.LineSize }

// line returns the tag of the line containing a and the first slot of
// its set, which is the same in every socket.
func (h *Hierarchy) line(a addr.Phys) (addr.Phys, int) {
	tag := a.Line(h.cfg.LineSize)
	return tag, int((uint64(tag)/h.cfg.LineSize)%uint64(h.cfg.Sets)) * h.cfg.Ways
}

// Access performs one load (write=false) or store (write=true) by the
// given socket to the line containing a, running the MESI protocol
// against the sibling sockets. It returns what happened so the timing
// layer can charge probe and writeback costs.
func (h *Hierarchy) Access(socket int, a addr.Phys, write bool) (Result, error) {
	if socket < 0 || socket >= len(h.sockets) {
		return Result{}, fmt.Errorf("cache: socket %d outside domain of %d", socket, len(h.sockets))
	}
	h.Accesses++
	tag, b := h.line(a)
	own := h.sockets[socket]
	var res Result

	if i := own.find(b, tag); i >= 0 {
		st := own.states[i]
		if !write || st == Modified {
			// Plain hit.
			res.Hit = true
			res.State = st
			own.touch(i)
			h.Hits++
			return res, nil
		}
		if st == Exclusive {
			// Silent E->M upgrade.
			own.states[i] = Modified
			own.touch(i)
			res.Hit = true
			res.State = Modified
			h.Hits++
			return res, nil
		}
		// S->M upgrade: invalidate the other sharers.
		res.Probes = h.invalidateOthers(socket, tag, b)
		own.states[i] = Modified
		own.touch(i)
		res.Hit = true
		res.State = Modified
		h.Hits++
		h.Probes += uint64(res.Probes)
		return res, nil
	}

	// Miss: consult the siblings.
	h.Misses++
	sharers := 0
	for s, c := range h.sockets {
		if s == socket {
			continue
		}
		if i := c.find(b, tag); i >= 0 {
			res.Probes++
			if c.states[i] == Modified {
				res.Writebacks++ // dirty data forwarded/written back
			}
			if write {
				c.states[i] = Invalid
			} else {
				c.states[i] = Shared
				sharers++
			}
		}
	}

	// Fill into our cache, possibly evicting.
	i := own.victim(b)
	if own.states[i] != Invalid {
		res.Victim = own.tags[i]
		if own.states[i] == Modified {
			res.Writebacks++
			res.VictimDirty = true
		}
	}
	newState := Exclusive
	if write {
		newState = Modified
	} else if sharers > 0 {
		newState = Shared
	}
	own.fill(i, tag, newState)
	res.State = newState
	h.Probes += uint64(res.Probes)
	h.Writebacks += uint64(res.Writebacks)
	return res, nil
}

func (h *Hierarchy) invalidateOthers(socket int, tag addr.Phys, b int) int {
	probes := 0
	for s, c := range h.sockets {
		if s == socket {
			continue
		}
		if i := c.find(b, tag); i >= 0 {
			c.states[i] = Invalid
			probes++
		}
	}
	return probes
}

// Install places a line into a socket's cache in Exclusive state — a
// prefetch fill. If any socket already holds the line the install is a
// no-op (prefetching must never disturb the coherence protocol). The
// result carries victim information so a displaced dirty line can be
// written back. Installs do not count as accesses or hits.
func (h *Hierarchy) Install(socket int, a addr.Phys) (Result, error) {
	if socket < 0 || socket >= len(h.sockets) {
		return Result{}, fmt.Errorf("cache: socket %d outside domain of %d", socket, len(h.sockets))
	}
	tag, b := h.line(a)
	for _, c := range h.sockets {
		if c.find(b, tag) >= 0 {
			return Result{Hit: true, State: Shared}, nil
		}
	}
	own := h.sockets[socket]
	i := own.victim(b)
	var res Result
	if own.states[i] != Invalid {
		res.Victim = own.tags[i]
		if own.states[i] == Modified {
			res.Writebacks++
			res.VictimDirty = true
			h.Writebacks++
		}
	}
	own.fill(i, tag, Exclusive)
	res.State = Exclusive
	h.Installs++
	return res, nil
}

// Present reports whether any socket currently caches the line.
func (h *Hierarchy) Present(a addr.Phys) bool {
	tag, b := h.line(a)
	for _, c := range h.sockets {
		if c.find(b, tag) >= 0 {
			return true
		}
	}
	return false
}

// StateIn returns the line state in one socket's cache, for tests and
// introspection.
func (h *Hierarchy) StateIn(socket int, a addr.Phys) State {
	tag, b := h.line(a)
	c := h.sockets[socket]
	if i := c.find(b, tag); i >= 0 {
		return c.states[i]
	}
	return Invalid
}

// FlushAll writes back and invalidates every line in the domain,
// returning the number of dirty lines written back. The prototype does
// this between a write phase and a read-only parallel phase, after which
// several threads may cache remote data safely.
func (h *Hierarchy) FlushAll() int {
	dirty := 0
	for _, c := range h.sockets {
		for i, st := range c.states {
			if st == Modified {
				dirty++
			}
			c.states[i] = Invalid
		}
	}
	h.Writebacks += uint64(dirty)
	return dirty
}

// HitRate returns the fraction of accesses that hit.
func (h *Hierarchy) HitRate() float64 {
	if h.Accesses == 0 {
		return 0
	}
	return float64(h.Hits) / float64(h.Accesses)
}
