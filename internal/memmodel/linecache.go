package memmodel

import (
	"fmt"

	"repro/internal/params"
	"repro/internal/swap"
)

// LineCached wraps an accessor with a write-back LRU line cache,
// modeling the processor cache in front of whichever memory backs the
// data. The prototype configures even RMC-mapped ranges write-back
// cacheable (paper Section IV-B), so cache-friendly workloads touch
// remote memory only on line fills — the effect that keeps blackscholes
// and raytrace close to local performance in Figure 11.
type LineCached struct {
	inner Accessor
	lines *swap.PageCache // reused as a line-granule LRU
	p     params.Params
	// misses is the retained scratch buffer of fill and writeback ops a
	// batch sends to inner, so steady-state pricing allocates nothing.
	misses []AccessOp

	// Fills counts line fills from the backing memory.
	Fills uint64
}

// DefaultCacheLines sizes the model like a 512 KiB L2 of 64 B lines.
const DefaultCacheLines = 8192

// NewLineCached wraps inner with a cache of the given line count.
func NewLineCached(inner Accessor, p params.Params, lines int) (*LineCached, error) {
	if inner == nil {
		return nil, fmt.Errorf("memmodel: LineCached over nil accessor")
	}
	c, err := swap.NewPageCache(lines)
	if err != nil {
		return nil, err
	}
	return &LineCached{inner: inner, lines: c, p: p}, nil
}

// AccessBatch implements Accessor: hits cost the cache latency; each
// miss also fills its line from the backing memory, and a dirty victim
// writes back to it. Every miss appends its fill op, then its victim's
// writeback op, to one buffer that inner prices in a single call. The
// line cache's state never depends on inner's, so inner sees exactly
// the op sequence per-access pricing would give it. A read of the line
// the op before it touched skips Touch (the repeat-page rule, see noPage).
func (c *LineCached) AccessBatch(ops []AccessOp) params.Duration {
	lines, misses := c.lines, c.misses[:0]
	var fills, repeats uint64
	last := noPage
	for _, op := range ops {
		line := op.Addr / params.CacheLineSize
		if line == last && !op.Write {
			repeats++ // a read re-touch of the LRU head
			continue
		}
		last = line
		res := lines.Touch(line, op.Write)
		if res.Hit {
			continue
		}
		fills++
		misses = append(misses, AccessOp{Addr: op.Addr})
		if res.EvictedDirty {
			misses = append(misses, AccessOp{Addr: res.Evicted * params.CacheLineSize, Write: true})
		}
	}
	lines.Hits += repeats
	c.Fills += fills
	c.misses = misses
	return params.Duration(len(ops))*c.p.L1Latency + c.inner.AccessBatch(misses)
}

// Name implements Accessor.
func (c *LineCached) Name() string { return c.inner.Name() }

// HitRate returns the cache hit fraction.
func (c *LineCached) HitRate() float64 {
	total := c.lines.Hits + c.lines.Misses
	if total == 0 {
		return 0
	}
	return float64(c.lines.Hits) / float64(total)
}

// Flush empties the cache, writing dirty lines back to the backing
// memory, and returns the writeback count and the charged writeback
// cost. This is the operation the prototype performs between a write
// phase and a read-only parallel phase. Each dirty line is charged at
// its real address (MRU first) — under a Striped or Swap backing the
// writeback must land on the stripe or page that actually holds the
// line, not at address 0.
func (c *LineCached) Flush() (dirty int, cost params.Duration) {
	wbs := c.misses[:0]
	dirty = c.lines.FlushDirty(func(line uint64) {
		wbs = append(wbs, AccessOp{Addr: line * params.CacheLineSize, Write: true})
	})
	c.misses = wbs
	return dirty, c.inner.AccessBatch(wbs)
}
