// Package memmodel is the macro evaluation layer: O(1)-per-access
// latency models for the three memory configurations the paper compares
// — all-local memory, the RMC's remote memory (constant line-granular
// latency, Equation 2), and remote/disk swap (page-granular faults over
// an LRU residency, Equation 1). Workload-scale experiments (the b-tree
// study and the PARSEC-class kernels) run here, where single-threaded
// clients make queueing irrelevant; the micro layer (packages sim, rmc,
// mesh) covers the contention studies and is cross-validated against
// this one in the experiments package.
package memmodel

import (
	"fmt"

	"repro/internal/params"
	"repro/internal/swap"
)

// Accessor prices memory accesses. Batches are the only pricing path:
// a single access is a batch of one.
type Accessor interface {
	// AccessBatch prices ops in order, updating the accessor's state,
	// and returns their total cost.
	AccessBatch(ops []AccessOp) params.Duration
	// Name identifies the configuration in figures.
	Name() string
}

// Local models node-local DRAM: every access costs the local latency.
// (The paper's equations charge L_local per access; processor caches are
// deliberately outside the equation on both sides of the comparison.)
type Local struct {
	P params.Params
}

// AccessBatch implements Accessor: every local access costs the same
// constant, so the batch is one multiplication.
func (l Local) AccessBatch(ops []AccessOp) params.Duration {
	return params.Duration(len(ops)) * l.P.DRAMLatency
}

// Name implements Accessor.
func (l Local) Name() string { return "local memory" }

// Remote models the prototype's remote memory, Equation (2): every
// access costs the constant line round trip at the given hop distance —
// no locality sensitivity at all, which is exactly its advantage over
// swap under scattered access patterns.
type Remote struct {
	P    params.Params
	Hops int
}

// AccessBatch implements Accessor: Equation (2) prices every access at
// the constant line round trip, so the batch is one multiplication.
func (r Remote) AccessBatch(ops []AccessOp) params.Duration {
	return params.Duration(len(ops)) * r.P.RemoteRoundTrip(r.Hops)
}

// Name implements Accessor.
func (r Remote) Name() string { return "remote memory" }

// Swap models paging, Equation (1): resident pages cost local latency,
// faults cost the OS trap plus the device transfer, dirty evictions pay
// a writeback.
type Swap struct {
	p     params.Params
	dev   swap.Device
	cache *swap.PageCache
	name  string
	// Device costs are constant per device; precomputing them keeps the
	// pricing loop free of interface calls.
	faultCost params.Duration // trap overhead + device fault transfer
	wbCost    params.Duration
	// FaultTime accumulates time spent in faults, for breakdowns.
	FaultTime params.Duration
}

// NewSwap builds a swap accessor with the given resident-page budget.
func NewSwap(p params.Params, dev swap.Device, residentPages int) (*Swap, error) {
	c, err := swap.NewPageCache(residentPages)
	if err != nil {
		return nil, err
	}
	return &Swap{
		p: p, dev: dev, cache: c, name: dev.Name(),
		faultCost: p.SwapTrapOverhead + dev.FaultCost(),
		wbCost:    dev.WritebackCost(),
	}, nil
}

// AccessBatch implements Accessor: one tight loop over the page cache
// with the device costs precomputed, no interface calls.
func (s *Swap) AccessBatch(ops []AccessOp) params.Duration {
	dram := s.p.DRAMLatency
	fault, wb := s.faultCost, s.wbCost
	cache := s.cache
	var total, faultTime params.Duration
	for _, op := range ops {
		res := cache.Touch(op.Addr/params.PageSize, op.Write)
		if res.Hit {
			total += dram
			continue
		}
		cost := fault
		if res.EvictedDirty {
			cost += wb
		}
		faultTime += cost
		total += cost + dram
	}
	s.FaultTime += faultTime
	return total
}

// Name implements Accessor.
func (s *Swap) Name() string { return s.name }

// Cache exposes the residency set for inspection.
func (s *Swap) Cache() *swap.PageCache { return s.cache }

// Meter wraps an accessor and accumulates totals — the measured side of
// EXPERIMENTS.md's paper-vs-measured records.
type Meter struct {
	Acc Accessor
	// Accesses counts accesses; Time accumulates their cost.
	Accesses uint64
	Time     params.Duration
}

// NewMeter wraps an accessor.
func NewMeter(acc Accessor) *Meter {
	if acc == nil {
		panic("memmodel: NewMeter(nil)")
	}
	return &Meter{Acc: acc}
}

// AccessBatch implements Accessor: the wrapped accessor prices the
// batch, and the meter accumulates once.
func (m *Meter) AccessBatch(ops []AccessOp) params.Duration {
	d := m.Acc.AccessBatch(ops)
	m.Accesses += uint64(len(ops))
	m.Time += d
	return d
}

// Name implements Accessor.
func (m *Meter) Name() string { return m.Acc.Name() }

// MeanAccess returns the average access cost so far.
func (m *Meter) MeanAccess() float64 {
	if m.Accesses == 0 {
		return 0
	}
	return float64(m.Time) / float64(m.Accesses)
}

// Reset zeroes the meter (not the wrapped accessor's state).
func (m *Meter) Reset() { m.Accesses, m.Time = 0, 0 }

// Config names a standard configuration for experiment drivers.
type Config int

// Standard configurations of Figure 11.
const (
	// ConfigLocal is the 128 GB-in-one-box ideal.
	ConfigLocal Config = iota
	// ConfigRemote is the prototype.
	ConfigRemote
	// ConfigRemoteSwap is the remote-paging comparator.
	ConfigRemoteSwap
	// ConfigDiskSwap is classic disk paging.
	ConfigDiskSwap
)

// Build constructs the accessor for a standard configuration at the
// given hop distance and residency budget. The hop distance must lie
// within the mesh: 0 to its diameter, the worst case Striped charges.
func Build(cfg Config, p params.Params, hops, residentPages int) (Accessor, error) {
	if diameter := p.MeshWidth + p.MeshHeight - 2; hops < 0 || hops > diameter {
		return nil, fmt.Errorf("memmodel: %d hops outside the %dx%d mesh (0..%d)", hops, p.MeshWidth, p.MeshHeight, diameter)
	}
	switch cfg {
	case ConfigLocal:
		return Local{P: p}, nil
	case ConfigRemote:
		return Remote{P: p, Hops: hops}, nil
	case ConfigRemoteSwap:
		return NewSwap(p, swap.RemoteDevice{P: p, Hops: hops}, residentPages)
	case ConfigDiskSwap:
		return NewSwap(p, swap.DiskDevice{P: p}, residentPages)
	default:
		return nil, fmt.Errorf("memmodel: unknown config %d", cfg)
	}
}

// String names the configuration.
func (c Config) String() string {
	switch c {
	case ConfigLocal:
		return "local memory"
	case ConfigRemote:
		return "remote memory"
	case ConfigRemoteSwap:
		return "remote swap"
	case ConfigDiskSwap:
		return "disk swap"
	default:
		return fmt.Sprintf("Config(%d)", int(c))
	}
}
