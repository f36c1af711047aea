package memmodel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/params"
	"repro/internal/swap"
)

// makeStack builds one accessor of the named composition. Each call
// returns a fresh, independent instance so the oracle can drive two
// identical stacks — one scalar, one batched — through the same stream.
func makeStack(t *testing.T, p params.Params, kind string) Accessor {
	t.Helper()
	mkStriped := func() *Striped {
		s, err := NewStriped(p, []Stripe{
			{Start: 0, Size: 1 << 20, Acc: Local{P: p}},
			{Start: 1 << 20, Size: 1 << 20, Acc: Remote{P: p, Hops: 1}},
			{Start: 3 << 20, Size: 1 << 20, Acc: Remote{P: p, Hops: 4}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mkSwap := func(dev swap.Device) *Swap {
		s, err := NewSwap(p, dev, 32)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mkCached := func(inner Accessor) *LineCached {
		c, err := NewLineCached(inner, p, 64)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	switch kind {
	case "local":
		return Local{P: p}
	case "remote":
		return Remote{P: p, Hops: 2}
	case "swap-remote":
		return mkSwap(swap.RemoteDevice{P: p, Hops: 1})
	case "swap-disk":
		return mkSwap(swap.DiskDevice{P: p})
	case "striped":
		return mkStriped()
	case "striped-stateful":
		// A stripe backed by a stateful accessor exercises the one-op
		// sub-slice path inside Striped.
		s, err := NewStriped(p, []Stripe{
			{Start: 0, Size: 1 << 20, Acc: NewMeter(Local{P: p})},
			{Start: 1 << 20, Size: 1 << 20, Acc: mkSwap(swap.RemoteDevice{P: p, Hops: 2})},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	case "cached-local":
		return mkCached(Local{P: p})
	case "cached-remote":
		return mkCached(Remote{P: p, Hops: 1})
	case "cached-striped":
		return mkCached(mkStriped())
	case "cached-swap":
		return mkCached(mkSwap(swap.RemoteDevice{P: p, Hops: 1}))
	case "cached-meter":
		// A Meter inner composes through the Accessor interface alone.
		return mkCached(NewMeter(Remote{P: p, Hops: 1}))
	case "meter-cached-striped":
		return NewMeter(mkCached(mkStriped()))
	case "meter-swap":
		return NewMeter(mkSwap(swap.RemoteDevice{P: p, Hops: 1}))
	default:
		t.Fatalf("unknown stack %q", kind)
		return nil
	}
}

// oracleStacks lists every composition the oracle covers.
var oracleStacks = []string{
	"local", "remote", "swap-remote", "swap-disk", "striped",
	"striped-stateful", "cached-local", "cached-remote",
	"cached-striped", "cached-swap", "cached-meter",
	"meter-cached-striped", "meter-swap",
}

// stateSig fingerprints every piece of observable accessor state the
// batch path must keep identical to the scalar reference model: meters, fill and
// fault counters, cache hit/miss/eviction statistics, residency.
func stateSig(acc Accessor) string {
	switch a := acc.(type) {
	case Local, Remote:
		return "stateless"
	case *Swap:
		c := a.Cache()
		return fmt.Sprintf("swap{fault=%d h=%d m=%d ev=%d dev=%d res=%d}",
			a.FaultTime, c.Hits, c.Misses, c.Evictions, c.DirtyEvictions, c.Resident())
	case *Striped:
		sig := fmt.Sprintf("striped{unmapped=%d", a.Unmapped)
		for i := range a.stripes {
			sig += " " + stateSig(a.stripes[i].Acc)
		}
		return sig + "}"
	case *LineCached:
		return fmt.Sprintf("cached{fills=%d h=%d m=%d ev=%d dev=%d inner=%s}",
			a.Fills, a.lines.Hits, a.lines.Misses, a.lines.Evictions,
			a.lines.DirtyEvictions, stateSig(a.inner))
	case *Meter:
		return fmt.Sprintf("meter{n=%d t=%d inner=%s}", a.Accesses, a.Time, stateSig(a.Acc))
	default:
		return "?"
	}
}

// opStream draws a deterministic access stream that exercises hits,
// misses, evictions, dirty writebacks, stripe boundaries, and unmapped
// gaps.
func opStream(seed int64, n int) []AccessOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]AccessOp, n)
	for i := range ops {
		var a uint64
		switch rng.Intn(10) {
		case 0: // unmapped gap between stripes 2 and 3
			a = 2<<20 + uint64(rng.Intn(1<<20))
		case 1, 2, 3: // hot set: high line/page hit rates
			a = uint64(rng.Intn(16 * params.PageSize))
		default: // full mapped span
			a = uint64(rng.Intn(4 << 20))
		}
		ops[i] = AccessOp{Addr: a, Write: rng.Intn(4) == 0}
	}
	return ops
}

// access1 prices one access as a batch of one.
func access1(acc Accessor, a uint64, write bool) params.Duration {
	return acc.AccessBatch([]AccessOp{{Addr: a, Write: write}})
}

// refAccess is the scalar reference model: each model type's pricing of
// one access, written directly against its state, one access at a time.
// It is the oracle AccessBatch is checked against and is never called
// outside tests.
func refAccess(acc Accessor, a uint64, write bool) params.Duration {
	switch m := acc.(type) {
	case Local:
		return m.P.DRAMLatency
	case Remote:
		return m.P.RemoteRoundTrip(m.Hops)
	case *Swap:
		res := m.cache.Touch(a/params.PageSize, write)
		if res.Hit {
			return m.p.DRAMLatency
		}
		cost := m.faultCost
		if res.EvictedDirty {
			cost += m.wbCost
		}
		m.FaultTime += cost
		return cost + m.p.DRAMLatency
	case *Striped:
		i := m.find(a)
		if i < 0 {
			m.Unmapped++
			return m.fallback
		}
		return refAccess(m.stripes[i].Acc, a, write)
	case *LineCached:
		res := m.lines.Touch(a/params.CacheLineSize, write)
		if res.Hit {
			return m.p.L1Latency
		}
		m.Fills++
		cost := m.p.L1Latency + refAccess(m.inner, a, false) // line fill
		if res.EvictedDirty {
			cost += refAccess(m.inner, res.Evicted*params.CacheLineSize, true)
		}
		return cost
	case *Meter:
		d := refAccess(m.Acc, a, write)
		m.Accesses++
		m.Time += d
		return d
	default:
		panic(fmt.Sprintf("refAccess: unknown accessor %T", acc))
	}
}

// refFlush is LineCached.Flush under the reference model: each dirty
// line, MRU first, written back by one scalar access.
func refFlush(c *LineCached) (dirty int, cost params.Duration) {
	dirty = c.lines.FlushDirty(func(line uint64) {
		cost += refAccess(c.inner, line*params.CacheLineSize, true)
	})
	return dirty, cost
}

// cachedOf returns the line cache at the top of a stack, looking
// through a Meter, or nil.
func cachedOf(acc Accessor) *LineCached {
	if m, ok := acc.(*Meter); ok {
		acc = m.Acc
	}
	c, _ := acc.(*LineCached)
	return c
}

// TestScalarBatchOracle is the batched models' correctness contract:
// for every accessor composition, a random access stream priced one op
// at a time by the scalar reference model and through AccessBatch in
// arbitrary chunks produces the identical total cost, identical
// per-chunk subtotals, and identical accessor/meter state — and, for
// line-cached stacks, an identical Flush.
func TestScalarBatchOracle(t *testing.T) {
	p := params.Default()
	for _, kind := range oracleStacks {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				scalar := makeStack(t, p, kind)
				batched := makeStack(t, p, kind)
				ops := opStream(seed, 4096)
				rng := rand.New(rand.NewSource(seed * 31))
				var scalarTotal, batchTotal params.Duration
				for lo := 0; lo < len(ops); {
					hi := lo + 1 + rng.Intn(257)
					if hi > len(ops) {
						hi = len(ops)
					}
					chunk := ops[lo:hi]
					var scalarChunk params.Duration
					for _, op := range chunk {
						scalarChunk += refAccess(scalar, op.Addr, op.Write)
					}
					batchChunk := batched.AccessBatch(chunk)
					if scalarChunk != batchChunk {
						t.Fatalf("seed %d chunk [%d:%d): scalar %d != batch %d", seed, lo, hi, scalarChunk, batchChunk)
					}
					scalarTotal += scalarChunk
					batchTotal += batchChunk
					lo = hi
				}
				if scalarTotal != batchTotal {
					t.Fatalf("seed %d: totals diverged: %d vs %d", seed, scalarTotal, batchTotal)
				}
				if ss, bs := stateSig(scalar), stateSig(batched); ss != bs {
					t.Fatalf("seed %d: state diverged:\nscalar: %s\nbatch:  %s", seed, ss, bs)
				}
				if c := cachedOf(batched); c != nil {
					sd, sc := refFlush(cachedOf(scalar))
					bd, bc := c.Flush()
					if sd != bd || sc != bc {
						t.Fatalf("seed %d: flush diverged: scalar %d lines %d, batch %d lines %d", seed, sd, sc, bd, bc)
					}
					if ss, bs := stateSig(scalar), stateSig(batched); ss != bs {
						t.Fatalf("seed %d: state diverged after flush:\nscalar: %s\nbatch:  %s", seed, ss, bs)
					}
				}
			}
		})
	}
}

// TestBatcherFlush covers the accumulate-and-flush helper.
func TestBatcherFlush(t *testing.T) {
	p := params.Default()
	var b Batcher
	if got := b.Flush(Local{P: p}); got != 0 {
		t.Errorf("empty flush = %d", got)
	}
	b.Read(0)
	b.Write(8)
	b.Add(16, false)
	if b.Len() != 3 {
		t.Errorf("Len = %d", b.Len())
	}
	if got, want := b.Flush(Local{P: p}), 3*p.DRAMLatency; got != want {
		t.Errorf("flush = %d, want %d", got, want)
	}
	if b.Len() != 0 {
		t.Error("flush did not clear the buffer")
	}
	b.Grow(1024)
	if cap(b.ops) < 1024 {
		t.Error("Grow did not grow")
	}
}

// TestLineCachedFlushChargesRealAddresses is the regression test for
// the writeback-pricing fix: Flush must charge each dirty line at the
// line's own address, so under a Striped inner the stripe that actually
// holds the line pays — never the stripe at address 0.
func TestLineCachedFlushChargesRealAddresses(t *testing.T) {
	p := params.Default()
	low := NewMeter(Remote{P: p, Hops: 1})  // covers address 0
	high := NewMeter(Remote{P: p, Hops: 4}) // holds everything we touch
	st, err := NewStriped(p, []Stripe{
		{Start: 0, Size: 1 << 20, Acc: low},
		{Start: 1 << 20, Size: 1 << 20, Acc: high},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewLineCached(st, p, 16)
	if err != nil {
		t.Fatal(err)
	}
	const base = 1 << 20
	for i := uint64(0); i < 4; i++ {
		access1(c, base+i*params.CacheLineSize, true)
	}
	fills := high.Accesses
	dirty, cost := c.Flush()
	if dirty != 4 {
		t.Fatalf("Flush = %d dirty, want 4", dirty)
	}
	if low.Accesses != 0 {
		t.Errorf("stripe at address 0 was charged %d accesses; writebacks mispriced", low.Accesses)
	}
	if high.Accesses != fills+4 {
		t.Errorf("holding stripe saw %d accesses, want %d fills + 4 writebacks", high.Accesses, fills)
	}
	if want := 4 * p.RemoteRoundTrip(4); cost != want {
		t.Errorf("flush cost = %d, want %d", cost, want)
	}
}

// TestLineCachedEvictionWritebackAddress pins the same property for
// eviction writebacks on the access path: the victim's writeback lands
// on the stripe holding the victim line.
func TestLineCachedEvictionWritebackAddress(t *testing.T) {
	p := params.Default()
	low := NewMeter(Remote{P: p, Hops: 1})
	high := NewMeter(Remote{P: p, Hops: 4})
	st, err := NewStriped(p, []Stripe{
		{Start: 0, Size: 64, Acc: low}, // exactly one line at address 0
		{Start: 64, Size: 1 << 20, Acc: high},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewLineCached(st, p, 1) // single-line cache: every miss evicts
	if err != nil {
		t.Fatal(err)
	}
	access1(c, 64, true)   // fill line 1 via high, dirty
	access1(c, 128, false) // evicts dirty line 1 → writeback must hit high
	if low.Accesses != 0 {
		t.Errorf("stripe at address 0 charged %d accesses by an eviction of line 1", low.Accesses)
	}
	if high.Accesses != 3 { // two fills + one writeback
		t.Errorf("holding stripe saw %d accesses, want 3", high.Accesses)
	}
}

// TestBatchedPricingLoopAllocs pins the batched pricing loop of every
// hot composition at 0 allocs/op — the macro-layer counterpart of the
// micro layer's engine and RMC alloc tests.
func TestBatchedPricingLoopAllocs(t *testing.T) {
	p := params.Default()
	for _, kind := range []string{
		"local", "remote", "swap-remote", "striped",
		"cached-striped", "cached-swap", "meter-cached-striped",
	} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			acc := makeStack(t, p, kind)
			ops := opStream(11, 2048)
			acc.AccessBatch(ops) // warm caches and map internals
			var sink params.Duration
			allocs := testing.AllocsPerRun(50, func() {
				sink += acc.AccessBatch(ops)
			})
			if allocs != 0 {
				t.Errorf("batched pricing loop: %.1f allocs/op, want 0", allocs)
			}
			if sink == 0 {
				t.Error("priced nothing")
			}
		})
	}
}
