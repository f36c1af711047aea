package mesh

import (
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/params"
	"repro/internal/sim"
)

// TestDeliverFollowsPath checks the fault-free delivery walk against
// Topology.Path for every ordered node pair: the frame is charged to
// exactly the links of the XY route, once each, and arrives after each
// of those links' occupancy plus latency. The axes carry different
// latencies, so a route with the right length but the wrong turns
// would also arrive at the wrong time. The 1×N line is the case where
// a step along y and a step along x are the same identifier offset.
func TestDeliverFollowsPath(t *testing.T) {
	ll, err := params.ParseLinkLat("x=60ns,y=400ns")
	if err != nil {
		t.Fatal(err)
	}
	p := params.Default()
	p.LinkLat = ll
	for _, wh := range [][2]int{{1, 7}, {7, 1}, {3, 5}, {16, 16}} {
		t.Run(fmt.Sprintf("%dx%d", wh[0], wh[1]), func(t *testing.T) {
			topo, err := NewTopology(wh[0], wh[1])
			if err != nil {
				t.Fatal(err)
			}
			f := NewFabric(sim.New(), topo, p, nil)
			const wire = 96 // two occupancy units
			occ := f.occupancy(wire)
			var now sim.Time
			for src := addr.NodeID(1); int(src) <= topo.Nodes(); src++ {
				for dst := addr.NodeID(1); int(dst) <= topo.Nodes(); dst++ {
					if src == dst {
						continue
					}
					path := topo.Path(src, dst)
					before := make([]uint64, len(path)-1)
					want := now
					for i := range before {
						l := f.link(path[i], path[i+1])
						before[i] = l.frames
						want += occ + l.lat
					}
					hops := f.Hops
					out := f.DeliverOutcome(now, src, dst, wire)
					if out.Hops != len(path)-1 || sim.Time(out.Arrive) != want {
						t.Fatalf("%d->%d: %d hops arriving %d, want %d hops arriving %d",
							src, dst, out.Hops, out.Arrive, len(path)-1, want)
					}
					// Each route link carried this frame, and the fabric
					// counted no other traversal.
					for i := range before {
						if got := f.link(path[i], path[i+1]).frames; got != before[i]+1 {
							t.Fatalf("%d->%d: link %d->%d frames %d, want %d", src, dst, path[i], path[i+1], got, before[i]+1)
						}
					}
					if f.Hops-hops != uint64(len(path)-1) {
						t.Fatalf("%d->%d: %d traversals, want %d", src, dst, f.Hops-hops, len(path)-1)
					}
					now = want // every link is idle again by the arrival
				}
			}
		})
	}
}
