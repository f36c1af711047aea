// Bulk pricing: unlike the analytic accessors above (closed-form
// per-line costs), bulk transfers are priced from simulation. A burst's
// cost is not linear in its line count — descriptor amortization, frame
// pipelining against DRAM bank occupancy, and the single cumulative ack
// all bend the curve — so the model runs each (kind, lines) point once
// through the real RMC burst machinery on a two-node micro-rig at the
// configured mesh distance, and caches the result.
package memmodel

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/mesh"
	"repro/internal/params"
	"repro/internal/rmc"
	"repro/internal/sim"
)

// BulkPricer prices one bulk transfer of n contiguous cache lines.
type BulkPricer interface {
	// BulkRead returns the completion time of gathering lines remote
	// cache lines in one operation.
	BulkRead(lines int) params.Duration
	// BulkWrite returns the completion time of scattering lines cache
	// lines in one operation.
	BulkWrite(lines int) params.Duration
}

// BulkModel prices bulk transfers by running them. Hops 0 prices local
// bursts (memory controllers only); hops >= 1 prices remote bursts
// through the full simulated path — doorbell, descriptor frame, mesh
// traversal, per-line bank accesses pipelined behind burst frames, and
// the amortized ack. Transfers larger than one burst's geometry are
// issued as the concurrent burst set the core layer would emit.
type BulkModel struct {
	P    params.Params
	Hops int

	cache map[bulkKey]params.Duration
}

type bulkKey struct {
	write bool
	lines int
}

// NewBulkModel builds a pricer at the given mesh distance.
func NewBulkModel(p params.Params, hops int) (*BulkModel, error) {
	if hops < 0 || hops > 64 {
		return nil, fmt.Errorf("memmodel: bulk model at %d hops", hops)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &BulkModel{P: p, Hops: hops, cache: make(map[bulkKey]params.Duration)}, nil
}

// BulkRead implements BulkPricer.
func (m *BulkModel) BulkRead(lines int) params.Duration { return m.price(lines, false) }

// BulkWrite implements BulkPricer.
func (m *BulkModel) BulkWrite(lines int) params.Duration { return m.price(lines, true) }

// Name identifies the model in figure notes.
func (m *BulkModel) Name() string {
	if m.Hops == 0 {
		return "bulk local"
	}
	return fmt.Sprintf("bulk remote (%d hops)", m.Hops)
}

func (m *BulkModel) price(lines int, write bool) params.Duration {
	if lines <= 0 {
		return 0
	}
	k := bulkKey{write: write, lines: lines}
	if d, ok := m.cache[k]; ok {
		return d
	}
	var d params.Duration
	if m.Hops == 0 {
		d = m.priceLocal(lines, write)
	} else {
		d = m.priceRemote(lines, write)
	}
	m.cache[k] = d
	return d
}

// priceLocal runs the lines through one node's memory controllers: the
// same pipelined bank run cluster.Node serves local bursts with.
func (m *BulkModel) priceLocal(lines int, write bool) params.Duration {
	eng := sim.New()
	bank := dram.NewBank(eng, 1, m.P)
	var memDone sim.Time
	for i := 0; i < lines; i++ {
		t, err := bank.Access(0, addr.Phys(uint64(i)*params.CacheLineSize), write)
		if err != nil {
			panic(fmt.Sprintf("memmodel: bulk local pricing: %v", err))
		}
		if t > memDone {
			memDone = t
		}
	}
	return params.Duration(memDone)
}

// microPeers is the two-RMC network of the pricing rig.
type microPeers map[addr.NodeID]*rmc.RMC

func (p microPeers) RMC(n addr.NodeID) (*rmc.RMC, error) {
	m, ok := p[n]
	if !ok {
		return nil, fmt.Errorf("memmodel: pricing rig has no node %d", n)
	}
	return m, nil
}

// priceRemote builds a 1×(hops+1) mesh with a client at one end and the
// serving node at the other, issues the transfer as bursts, and returns
// the drain time.
func (m *BulkModel) priceRemote(lines int, write bool) params.Duration {
	set := sim.NewShardSet(1, m.P.LinkLat.MinLatency(m.P.HopLatency))
	exch := rmc.NewExchangeSet(set).Shard(0)
	eng := set.Engine(0)
	topo, err := mesh.NewTopology(m.Hops+1, 1)
	if err != nil {
		panic(fmt.Sprintf("memmodel: bulk pricing topology: %v", err))
	}
	fabric := mesh.NewFabric(eng, topo, m.P, nil)
	peers := microPeers{}
	for _, id := range []addr.NodeID{1, addr.NodeID(m.Hops + 1)} {
		st, err := mem.NewStore(m.P.MemPerNode)
		if err != nil {
			panic(fmt.Sprintf("memmodel: bulk pricing store: %v", err))
		}
		r, err := rmc.New(rmc.Config{
			Self: id, Params: m.P, Fabric: fabric, Peers: peers,
			Bank: dram.NewBank(eng, id, m.P), Store: st, Exch: exch,
		})
		if err != nil {
			panic(fmt.Sprintf("memmodel: bulk pricing rig: %v", err))
		}
		peers[id] = r
	}
	dst := addr.NodeID(m.Hops + 1)
	kind := rmc.BulkRead
	if write {
		kind = rmc.BulkWrite
	}
	// Issue the burst set the core layer would emit for this many
	// lines: full bursts concurrently, contending at the client RMC.
	maxLines := m.P.BurstMaxLines()
	var last sim.Time
	for off := 0; off < lines; off += maxLines {
		n := min(maxLines, lines-off)
		req := rmc.BulkRequest{
			Kind: kind,
			Spans: []rmc.Span{{
				Start: addr.Phys(uint64(off) * params.CacheLineSize).WithNode(dst),
				Lines: n,
			}},
			Done: func(t sim.Time, err error) {
				if err != nil {
					panic(fmt.Sprintf("memmodel: bulk pricing run: %v", err))
				}
				if t > last {
					last = t
				}
			},
		}
		if write {
			req.Data = make([]byte, n*params.CacheLineSize)
		}
		if err := peers[1].RequestBulk(0, req); err != nil {
			panic(fmt.Sprintf("memmodel: bulk pricing request: %v", err))
		}
	}
	set.Run()
	return params.Duration(last)
}

var _ BulkPricer = (*BulkModel)(nil)
