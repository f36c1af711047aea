// Package workloads supplies the benchmark drivers of the evaluation:
// the random-access microbenchmark of Figures 6–8 (micro layer: streams
// of line-granular physical accesses for cpu threads) and the
// PARSEC-class synthetic kernels of Figure 11 (macro layer: address
// generators with each benchmark's footprint and locality class, run
// against a memmodel.Accessor).
//
// The PARSEC substitution (see DESIGN.md §2): we cannot run the real
// binaries, but Figure 11's result is driven entirely by (a) footprint
// relative to the local memory available to the swap configuration and
// (b) access locality. The kernels parameterize exactly those:
// blackscholes streams sequentially (high locality, footprint > local),
// raytrace mixes bursty node reads with a hot set (moderate locality),
// canneal pointer-chases uniformly over a large footprint (minimal
// locality), and streamcluster streams over a footprint that fits
// locally (swap never engages).
package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/memmodel"
	"repro/internal/params"
)

// RandomStream builds the microbenchmark's access stream: count
// line-aligned accesses drawn uniformly over the given physical ranges
// (the memory the client reserved on its servers), deterministic in
// seed. writeFrac in [0,1] selects the store fraction; Figures 6–8 use
// pure loads (0).
func RandomStream(seed int64, ranges []addr.Range, count int, writeFrac float64) (cpu.Stream, error) {
	if len(ranges) == 0 {
		return nil, fmt.Errorf("workloads: no target ranges")
	}
	for _, r := range ranges {
		if r.Size < params.CacheLineSize {
			return nil, fmt.Errorf("workloads: range %v smaller than a line", r)
		}
	}
	if count < 0 || writeFrac < 0 || writeFrac > 1 {
		return nil, fmt.Errorf("workloads: bad count %d or write fraction %v", count, writeFrac)
	}
	rng := rand.New(rand.NewSource(seed))
	issued := 0
	return cpu.FuncStream(func() (cpu.Access, bool) {
		if issued >= count {
			return cpu.Access{}, false
		}
		issued++
		r := ranges[rng.Intn(len(ranges))]
		lines := r.Size / params.CacheLineSize
		off := uint64(rng.Int63n(int64(lines))) * params.CacheLineSize
		return cpu.Access{
			Addr:  r.Start + addr.Phys(off),
			Write: rng.Float64() < writeFrac,
		}, true
	}), nil
}

// Kernel is one synthetic PARSEC-class benchmark.
type Kernel struct {
	// Name matches the PARSEC benchmark it stands in for.
	Name string
	// Footprint is the dataset size in bytes.
	Footprint uint64
	// Accesses is the number of memory accesses the run performs.
	Accesses uint64
	// ComputePerAccess is the instruction work charged per access —
	// constant across memory configurations, which is why memory-bound
	// kernels separate the configurations and compute-bound ones don't.
	ComputePerAccess params.Duration
	// gen returns a deterministic address generator.
	gen func(k Kernel, seed int64) func() (a uint64, write bool)
}

// Result is one kernel run under one memory configuration.
type Result struct {
	Kernel   string
	Config   string
	MemTime  params.Duration
	CompTime params.Duration
	Accesses uint64
}

// Total returns memory plus compute time.
func (r Result) Total() params.Duration { return r.MemTime + r.CompTime }

// runChunk is the batch size Run prices at a time: large enough that
// per-batch dispatch vanishes, small enough that the op buffer stays
// cache-resident. Batch boundaries never change costs or accessor
// state, so the chunk size is purely a throughput knob.
const runChunk = 4096

// Run executes the kernel against an accessor. The generator's address
// sequence is buffered in runChunk-sized batches and priced through the
// batched access engine, so the accessor's per-access virtual dispatch
// is paid once per chunk instead of once per access.
func (k Kernel) Run(acc memmodel.Accessor, seed int64) Result {
	next := k.gen(k, seed)
	res := Result{Kernel: k.Name, Config: acc.Name()}
	ops := make([]memmodel.AccessOp, runChunk)
	for done := uint64(0); done < k.Accesses; {
		n := uint64(runChunk)
		if left := k.Accesses - done; left < n {
			n = left
		}
		for i := uint64(0); i < n; i++ {
			a, w := next()
			ops[i] = memmodel.AccessOp{Addr: a, Write: w}
		}
		res.MemTime += acc.AccessBatch(ops[:n])
		done += n
	}
	res.Accesses = k.Accesses
	res.CompTime = params.Duration(k.Accesses) * k.ComputePerAccess
	return res
}

// ScaleRef is the reference footprint unit: the local memory available
// to the swap configuration's dataset (its residency budget), so kernel
// footprints are stated as multiples of what fits locally.
func ScaleRef(p params.Params) uint64 {
	return uint64(p.SwapResidentPages) * params.PageSize
}

// Blackscholes streams sequentially over an option array larger than
// local memory: every page is touched ~512 times per pass, so swap
// amortizes well but still pays a full refault sweep per pass.
func Blackscholes(p params.Params) Kernel {
	foot := 4 * ScaleRef(p)
	return Kernel{
		Name:             "blackscholes",
		Footprint:        foot,
		Accesses:         2 * foot / 16, // two passes, 16-byte stride
		ComputePerAccess: 150 * params.Nanosecond,
		gen: func(k Kernel, seed int64) func() (uint64, bool) {
			var pos uint64
			n := uint64(0)
			return func() (uint64, bool) {
				a := pos % k.Footprint
				pos += 16
				n++
				// Every 8th access writes the computed price back.
				return a, n%8 == 0
			}
		},
	}
}

// Raytrace mixes bursty node reads (32 sequential words in one random
// block, a BVH-node visit) with a hot working set — upper BVH levels and
// shading data, sized to fit local residency — absorbing most bursts.
// The cold tail of scene geometry is what the swap configuration pays
// for, at roughly the paper's 2x.
func Raytrace(p params.Params) Kernel {
	foot := 8 * ScaleRef(p)
	return Kernel{
		Name:             "raytrace",
		Footprint:        foot,
		Accesses:         600_000,
		ComputePerAccess: 120 * params.Nanosecond,
		gen: func(k Kernel, seed int64) func() (uint64, bool) {
			rng := rand.New(rand.NewSource(seed))
			hot := k.Footprint / 10
			var base uint64
			inBurst := 0
			return func() (uint64, bool) {
				if inBurst == 0 {
					inBurst = 32
					if rng.Float64() < 0.85 {
						base = uint64(rng.Int63n(int64(hot/8))) * 8
					} else {
						base = uint64(rng.Int63n(int64(k.Footprint/8-32))) * 8
					}
				}
				a := base
				base += 8
				inBurst--
				return a, false
			}
		},
	}
}

// Canneal pointer-chases uniformly over a very large footprint: each
// simulated move reads two random elements and writes both back. The
// locality term of Equation (1) collapses to ~1, which is what makes
// remote swap prohibitive in Figure 11.
func Canneal(p params.Params) Kernel {
	foot := 32 * ScaleRef(p)
	return Kernel{
		Name:             "canneal",
		Footprint:        foot,
		Accesses:         400_000,
		ComputePerAccess: 60 * params.Nanosecond,
		gen: func(k Kernel, seed int64) func() (uint64, bool) {
			rng := rand.New(rand.NewSource(seed))
			phase := 0
			var a, b uint64
			return func() (uint64, bool) {
				switch phase {
				case 0:
					a = uint64(rng.Int63n(int64(k.Footprint/8))) * 8
					phase = 1
					return a, false
				case 1:
					b = uint64(rng.Int63n(int64(k.Footprint/8))) * 8
					phase = 2
					return b, false
				case 2:
					phase = 3
					return a, true
				default:
					phase = 0
					return b, true
				}
			}
		},
	}
}

// Streamcluster streams repeatedly over a footprint that fits in local
// memory: the swap configuration faults each page once during warmup and
// never again, so over the run's many clustering passes swap converges
// with local — the paper's control case.
func Streamcluster(p params.Params) Kernel {
	foot := ScaleRef(p) / 2
	return Kernel{
		Name:             "streamcluster",
		Footprint:        foot,
		Accesses:         32 * foot / 8, // many clustering passes, word stride
		ComputePerAccess: 130 * params.Nanosecond,
		gen: func(k Kernel, seed int64) func() (uint64, bool) {
			var pos uint64
			return func() (uint64, bool) {
				a := pos % k.Footprint
				pos += 8
				return a, false
			}
		},
	}
}

// ParsecSuite returns the Figure 11 benchmark set in the paper's order.
func ParsecSuite(p params.Params) []Kernel {
	return []Kernel{Blackscholes(p), Raytrace(p), Canneal(p), Streamcluster(p)}
}
