package mesh

import (
	"fmt"
	"sort"

	"repro/internal/addr"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/sim"
)

// linkKey identifies one directed link; the express links are keyed by it.
type linkKey struct {
	from, to addr.NodeID
}

// link is one directed link: its timed occupancy, its traversal latency
// (per-edge under a -linklat table, HopLatency otherwise), plus traffic
// tallies the metrics layer samples lazily.
type link struct {
	res    *sim.Resource
	lat    sim.Time
	frames uint64
	bytes  uint64
}

// Fabric is the timed fabric: every directed mesh link is a FIFO resource
// whose occupancy models serialization bandwidth, and crossing a link
// additionally costs the hop latency (SerDes + router traversal).
// Express links are dedicated point-to-point connections outside the
// mesh, used only by traffic that explicitly asks for them.
type Fabric struct {
	topo     Topology
	eng      *sim.Engine
	p        params.Params
	inj      *faults.Injector // nil on a fault-free fabric
	links    []*link          // mesh links by linkSlot; nil past the mesh edge
	express  map[linkKey]*link
	onChange func() // invoked after link-set changes (express additions)

	// Delivered counts frames fully delivered; Hops counts link
	// traversals (mesh only — an express crossing is not a mesh hop).
	Delivered uint64
	Hops      uint64

	// Reroutes counts hops diverted off the XY route around a down
	// link; DetourHops counts the extra traversals those diversions
	// cost; Unreachable counts frames that found no route at all. All
	// three stay zero (and unregistered) without an injector.
	Reroutes    uint64
	DetourHops  uint64
	Unreachable uint64
}

// NewFabric builds the timed mesh over the engine with the given
// calibration. A nil injector yields the fault-free fabric: pure XY
// routes, no drops, and no fault metric families.
func NewFabric(eng *sim.Engine, topo Topology, p params.Params, inj *faults.Injector) *Fabric {
	f := &Fabric{
		topo:    topo,
		eng:     eng,
		p:       p,
		inj:     inj,
		links:   make([]*link, linksPerNode*topo.Nodes()),
		express: make(map[linkKey]*link),
	}
	for id := addr.NodeID(1); int(id) <= topo.Nodes(); id++ {
		for _, nb := range topo.Neighbors(id) {
			slot, _ := f.linkSlot(id, nb)
			l := f.newLink(linkKey{id, nb}, "mesh", 0)
			fx, fy := topo.Coord(id)
			tx, ty := topo.Coord(nb)
			l.lat = p.LinkLat.EdgeLatency(fx, fy, tx, ty, p.HopLatency)
			f.links[slot] = l
		}
	}
	m := eng.Metrics()
	m.CounterFunc(metrics.FamMeshDelivered, "frames fully delivered by the fabric", nil,
		func() uint64 { return f.Delivered })
	m.CounterFunc(metrics.FamMeshHops, "mesh link traversals", nil,
		func() uint64 { return f.Hops })
	if inj != nil {
		m.CounterFunc(metrics.FamMeshReroutes, "hops diverted around down links", nil,
			func() uint64 { return f.Reroutes })
		m.CounterFunc(metrics.FamMeshDetourHops, "extra link traversals caused by detours", nil,
			func() uint64 { return f.DetourHops })
		m.CounterFunc(metrics.FamMeshUnreachable, "frames that found no route", nil,
			func() uint64 { return f.Unreachable })
	}
	return f
}

// The directions of a node's outgoing mesh links, which are also their
// slots among the node's linksPerNode entries of f.links.
const (
	dirXMinus = iota
	dirXPlus
	dirYMinus
	dirYPlus
	linksPerNode
)

// slot returns the index in f.links of the link leaving from in dir.
func slot(from addr.NodeID, dir int) int { return int(from-1)*linksPerNode + dir }

// linkSlot returns the index of the directed mesh link from->to in
// f.links. The direction comes from the coordinates, not the identifier
// difference, because +1 and +W are the same offset on a 1×N mesh. It
// reports false when either node is outside the mesh or the two are not
// neighbors.
func (f *Fabric) linkSlot(from, to addr.NodeID) (int, bool) {
	if !f.topo.Contains(from) || !f.topo.Contains(to) {
		return 0, false
	}
	fx, fy := f.topo.Coord(from)
	tx, ty := f.topo.Coord(to)
	var dir int
	switch {
	case ty == fy && tx == fx-1:
		dir = dirXMinus
	case ty == fy && tx == fx+1:
		dir = dirXPlus
	case tx == fx && ty == fy-1:
		dir = dirYMinus
	case tx == fx && ty == fy+1:
		dir = dirYPlus
	default:
		return 0, false
	}
	return slot(from, dir), true
}

// link returns the directed mesh link from->to, or nil when there is
// none.
func (f *Fabric) link(from, to addr.NodeID) *link {
	slot, ok := f.linkSlot(from, to)
	if !ok {
		return nil
	}
	return f.links[slot]
}

// newLink builds a directed link and registers its traffic counters.
func (f *Fabric) newLink(k linkKey, class string, queue int) *link {
	name := fmt.Sprintf("link %d->%d", k.from, k.to)
	if class == "express" {
		name = fmt.Sprintf("express %d->%d", k.from, k.to)
	}
	l := &link{res: sim.NewResource(f.eng, name, queue), lat: f.p.HopLatency}
	ls := metrics.L(
		"from", fmt.Sprintf("%d", k.from),
		"to", fmt.Sprintf("%d", k.to),
		"class", class,
	)
	m := f.eng.Metrics()
	m.CounterFunc(metrics.FamMeshLinkFrames, "frames carried by this directed link", ls,
		func() uint64 { return l.frames })
	m.CounterFunc(metrics.FamMeshLinkBytes, "wire bytes carried by this directed link", ls,
		func() uint64 { return l.bytes })
	return l
}

// Topology returns the fabric's geometry.
func (f *Fabric) Topology() Topology { return f.topo }

// AddExpressLink installs a dedicated bidirectional point-to-point link
// between two nodes (one spare HTX connector each). Traffic only uses it
// via DeliverExpress. In a sharded run, call it only with the shard set
// parked — before Run or between Run calls — since the lookahead
// recompute the topology-change hook triggers refuses to tighten the
// bound matrix while windows are executing.
func (f *Fabric) AddExpressLink(a, b addr.NodeID) error {
	if !f.topo.Contains(a) || !f.topo.Contains(b) || a == b {
		return fmt.Errorf("mesh: invalid express link %d<->%d", a, b)
	}
	for _, k := range []linkKey{{a, b}, {b, a}} {
		if _, dup := f.express[k]; dup {
			return fmt.Errorf("mesh: express link %d->%d already exists", k.from, k.to)
		}
		f.express[k] = f.newLink(k, "express", 0)
	}
	if f.onChange != nil {
		f.onChange()
	}
	return nil
}

// OnTopologyChange installs a hook invoked after the link set changes
// (today: express-link additions). The sharded engine recomputes its
// lookahead bound matrix here — an express link is a new fastest path
// between its endpoints' regions.
func (f *Fabric) OnTopologyChange(fn func()) { f.onChange = fn }

// occupancy returns the link occupancy of a frame of the given wire size:
// the calibrated per-packet occupancy covers one cache-line frame; larger
// transfers (page DMA) scale linearly.
func (f *Fabric) occupancy(wireBytes int) sim.Time {
	units := (wireBytes + params.CacheLineSize - 1) / params.CacheLineSize
	if units < 1 {
		units = 1
	}
	return sim.Time(units) * f.p.LinkOccupancy
}

// DeliverOutcome implements rmc.Fabric: it sends a frame of wireBytes
// from src to dst starting at now and reports its arrival time and hop
// count. Each hop is store-and-forward: the frame serializes onto the
// link (waiting behind earlier frames), then takes the hop latency to
// cross, which is how contention on shared mesh links appears in
// Figure 8. Frames follow the XY route; under a fault plan they detour
// around links the plan has taken down (greedy: the up neighbor closest
// to the destination that is not an immediate bounce back), and the
// plan's drop, corruption, and delay probabilities roll on every
// traversal.
func (f *Fabric) DeliverOutcome(now sim.Time, src, dst addr.NodeID, wireBytes int) faults.Outcome {
	if src == dst {
		return faults.Outcome{Arrive: int64(now), Status: faults.Delivered}
	}
	occ := f.occupancy(wireBytes)
	t := now
	cur := f.at(src)
	bx, by := f.topo.Coord(dst)
	var prev addr.NodeID
	hops := 0
	detoured := false
	corrupted := false
	// A frame wandering past every possible detour is unroutable; the
	// cap bounds ping-ponging when outages partition the mesh.
	maxHops := 4*(f.topo.W+f.topo.H) + 8
	for cur.node != dst {
		if hops >= maxHops {
			f.Unreachable++
			return faults.Outcome{Arrive: int64(t), Hops: hops, Status: faults.Unreachable}
		}
		next, l, detour := f.nextHop(cur, prev, dst, bx, by, t, detoured)
		if l == nil {
			f.Unreachable++
			return faults.Outcome{Arrive: int64(t), Hops: hops, Status: faults.Unreachable}
		}
		if detour {
			detoured = true
			f.Reroutes++
		}
		done, _ := l.res.Acquire(t, occ) // mesh links have unbounded queues
		l.frames++
		l.bytes += uint64(wireBytes)
		f.Hops++
		t = done + l.lat
		hops++
		if f.inj != nil {
			if d, ok := f.inj.RollDelay(); ok {
				t += sim.Time(d)
			}
			if f.inj.RollDrop() {
				// The frame occupied every link up to here, then vanished.
				return faults.Outcome{Arrive: int64(t), Hops: hops, Status: faults.Dropped}
			}
			if f.inj.RollCorrupt() {
				corrupted = true
			}
		}
		prev, cur = cur.node, next
	}
	f.Delivered++
	if detoured {
		if extra := hops - f.topo.Hops(src, dst); extra > 0 {
			f.DetourHops += uint64(extra)
		}
	}
	st := faults.Delivered
	if corrupted {
		st = faults.Corrupted
	}
	return faults.Outcome{Arrive: int64(t), Hops: hops, Status: st}
}

// cursor is a frame's position in the mesh: a node and its
// coordinates. DeliverOutcome steps the coordinates with each hop, so
// the XY route never divides by the mesh width.
type cursor struct {
	node addr.NodeID
	x, y int
}

// at returns the cursor standing on node n.
func (f *Fabric) at(n addr.NodeID) cursor {
	x, y := f.topo.Coord(n)
	return cursor{node: n, x: x, y: y}
}

// nextHop picks the next position on the way to dst (at coordinates
// bx, by), the link that reaches it, and whether the hop leaves the XY
// route; a nil link means there is no way on. On the clean path the
// next node is the XY dimension-order neighbor, one step along x or y:
// cur±1 or cur±W. When that link is down — or once the frame has
// already detoured (greedy) — it is the live neighbor closest to the
// destination. The greedy mode matters: strict XY preference at the
// nodes around an outage steers a detoured frame straight back into
// the down link forever, whereas distance-greedy routing walks it
// around the cut. Selection order is deterministic (distance to dst,
// then identifier), so routes under a fixed fault plan replay exactly.
func (f *Fabric) nextHop(cur cursor, prev, dst addr.NodeID, bx, by int, at sim.Time, greedy bool) (cursor, *link, bool) {
	pref := cur
	w := addr.NodeID(f.topo.W)
	var dir int
	switch {
	case bx < cur.x:
		pref.node, pref.x, dir = cur.node-1, cur.x-1, dirXMinus
	case bx > cur.x:
		pref.node, pref.x, dir = cur.node+1, cur.x+1, dirXPlus
	case by < cur.y:
		pref.node, pref.y, dir = cur.node-w, cur.y-1, dirYMinus
	default:
		pref.node, pref.y, dir = cur.node+w, cur.y+1, dirYPlus
	}
	if f.inj == nil || (!greedy && !f.inj.LinkDown(cur.node, pref.node, int64(at))) {
		return pref, f.links[slot(cur.node, dir)], false
	}
	nbs := f.topo.Neighbors(cur.node)
	sort.Slice(nbs, func(i, j int) bool {
		di, dj := f.topo.Hops(nbs[i], dst), f.topo.Hops(nbs[j], dst)
		if di != dj {
			return di < dj
		}
		return nbs[i] < nbs[j]
	})
	for _, nb := range nbs {
		if nb == prev {
			continue // never an immediate bounce back (loop bait)
		}
		if !greedy && nb == pref.node {
			continue // the XY link is known down on this path
		}
		if !f.inj.LinkDown(cur.node, nb, int64(at)) {
			return f.at(nb), f.link(cur.node, nb), nb != pref.node
		}
	}
	// Dead end: back out the way we came if that link is still up.
	if prev != 0 && !f.inj.LinkDown(cur.node, prev, int64(at)) {
		return f.at(prev), f.link(cur.node, prev), true
	}
	return cursor{}, nil, false
}

// DeliverExpress sends a frame over a dedicated express link. It fails if
// no such link exists. Express links are direct point-to-point cables
// outside the mesh and outside the fault plan: they neither drop nor
// reroute.
func (f *Fabric) DeliverExpress(now sim.Time, src, dst addr.NodeID, wireBytes int) (sim.Time, error) {
	l, ok := f.express[linkKey{src, dst}]
	if !ok {
		return 0, fmt.Errorf("mesh: no express link %d->%d", src, dst)
	}
	done, _ := l.res.Acquire(now, f.occupancy(wireBytes))
	l.frames++
	l.bytes += uint64(wireBytes)
	f.Delivered++
	return done + f.p.HopLatency, nil
}

// LinkUtilization returns the utilization of the directed mesh link
// from->to over elapsed time, for diagnostics.
func (f *Fabric) LinkUtilization(from, to addr.NodeID, elapsed sim.Time) (float64, error) {
	l := f.link(from, to)
	if l == nil {
		return 0, fmt.Errorf("mesh: no link %d->%d", from, to)
	}
	return l.res.Utilization(elapsed), nil
}

// Links returns the number of directed mesh links.
func (f *Fabric) Links() int {
	n := 0
	for _, l := range f.links {
		if l != nil {
			n++
		}
	}
	return n
}
