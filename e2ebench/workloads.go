package main

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/faults"
	"repro/internal/params"
)

// faultPlan is the plan ncdsm-perf arms its faulted Figure 7 sweep with:
// drops, corruptions and delays on every link, and early in the run one
// link down, a NACK storm at node 6's client RMC and a stalled server.
const faultPlan = "seed=7,drop=0.01,corrupt=0.002,delayp=0.02,delay=300ns,down=2-6@0:50us,storm=6@20us:40us,stall=2@10us:60us"

// protoClients is the client layout of both 4×4 prototype workloads.
// Every client runs four threads, which retry on the client RMC's
// one-deep admission queue.
//   - Six nodes, one and two hops from node 6, share it as their only
//     server: past three such nodes the server RMC saturates, the
//     queueing of Figure 8.
//   - Node 6 is Figure 7's client at its saturation point: four threads
//     against one server one hop away.
//   - Node 16 reads from node 2, across the mesh and over the 2–6 link.
//
// The fault plan takes the 2–6 link down, storms node 6's client RMC
// and stalls node 2's server, so every one of its events meets traffic.
func protoClients(accesses int, writeFrac float64) []clientSpec {
	client := func(node addr.NodeID, servers ...addr.NodeID) clientSpec {
		return clientSpec{node: node, servers: servers, threads: 4, accesses: accesses, writeFrac: writeFrac}
	}
	cs := []clientSpec{client(6, 7), client(16, 2)}
	for _, n := range []addr.NodeID{1, 2, 3, 5, 9, 11} {
		cs = append(cs, client(n, 6))
	}
	return cs
}

const (
	protoAccesses = 5000 // per thread; 32 threads
	meshAccesses  = 400  // per thread; 256 threads
)

func proto4x4Read() workload {
	return &fabricSpec{p: params.Default(), clients: protoClients(protoAccesses, 0), reserve: 64 << 20}
}

func proto4x4FaultedRW() (workload, error) {
	plan, err := faults.Parse(faultPlan)
	if err != nil {
		return nil, err
	}
	p := params.Default()
	p.Faults = plan
	return &fabricSpec{p: p, clients: protoClients(protoAccesses, 0.3), reserve: 64 << 20}, nil
}

// mesh16Sharded is the scale experiment's layout on a 16×16 mesh: every
// node runs one thread against the memory of its point reflection
// through the mesh centre, on as many shards as the host has cores.
func mesh16Sharded() workload {
	p := params.Default()
	p.MeshWidth, p.MeshHeight = 16, 16
	p.Shards = 2
	var cs []clientSpec
	for y := 0; y < p.MeshHeight; y++ {
		for x := 0; x < p.MeshWidth; x++ {
			node := addr.NodeID(y*p.MeshWidth + x + 1)
			partner := addr.NodeID((p.MeshHeight-1-y)*p.MeshWidth + (p.MeshWidth - 1 - x) + 1)
			cs = append(cs, clientSpec{node: node, servers: []addr.NodeID{partner}, threads: 1, accesses: meshAccesses})
		}
	}
	return &shardedSpec{fabricSpec{p: p, clients: cs, reserve: 8 << 20}}
}

// shardedSpec is a fabric workload run on several shards whose output
// must match the same inputs run on one.
type shardedSpec struct{ fabricSpec }

// reference runs the workload untimed on a single shard and returns its
// digest.
func (s *shardedSpec) reference(seed int64) (string, error) {
	one := s.fabricSpec
	one.p.Shards = 1
	inst, err := one.setup(seed, nil)
	if err != nil {
		return "", err
	}
	if err := inst.run(nil); err != nil {
		return "", err
	}
	out, err := inst.finish(nil)
	return out.Digest, err
}

// btreeSwap straddles the Figure 9 optimum fanout of 168.
func btreeSwap() workload {
	return &btreeSpec{
		p:        params.Default(),
		fanouts:  []int{64, 168, 448},
		keys:     400_000,
		searches: 300_000,
		resident: 1024,
		hops:     1,
	}
}

func workloadsByName() map[string]workload {
	faulted, err := proto4x4FaultedRW()
	if err != nil {
		panic(fmt.Sprintf("e2ebench: fault plan: %v", err)) // a constant; a bug if it fails
	}
	return map[string]workload{
		"proto4x4_read":       proto4x4Read(),
		"proto4x4_faulted_rw": faulted,
		"mesh16_sharded":      mesh16Sharded(),
		"btree_swap":          btreeSwap(),
	}
}

// perLayer lists the traced run's metrics in report order. Layers a
// workload bypasses read 0.
var perLayer = []struct{ name, unit string }{
	{"core.build_s", "s"},
	{"memdir.reserve_s", "s"},
	{"memdir.grants", "count"},
	{"workloads.gen_s", "s"},
	{"sim.run_s", "s"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.window_s", "s"},
	{"sim.barriers", "count"},
	{"sim.windows_elided", "count"},
	{"sim.events_per_barrier", "count"},
	{"sim.shard_imbalance", "ratio"},
	{"rmc.drain_s", "s"},
	{"rmc.drain_calls", "count"},
	{"rmc.drain_us", "us"},
	{"rmc.intents", "count"},
	{"rmc.requests", "count"},
	{"rmc.retries", "count"},
	{"rmc.useful_ratio", "ratio"},
	{"rmc.client_util", "ratio"},
	{"rmc.server_util", "ratio"},
	{"mesh.hops", "count"},
	{"mesh.link_frames", "count"},
	{"mesh.reroutes", "count"},
	{"mesh.detour_hops", "count"},
	{"hnc.frames", "count"},
	{"hnc.crc_failures", "count"},
	{"hnc.seq_gaps", "count"},
	{"cache.accesses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"dram.accesses", "count"},
	{"dram.row_hit_ratio", "ratio"},
	{"faults.drops", "count"},
	{"faults.corruptions", "count"},
	{"faults.delays", "count"},
	{"rmc.retransmits", "count"},
	{"rmc.storm_nacks", "count"},
	{"rmc.server_stalls", "count"},
	{"cluster.remote_ops", "count"},
	{"cluster.abandoned_ops", "count"},
	{"cpu.accesses", "count"},
	{"btree.load_s", "s"},
	{"btree.search_s", "s"},
	{"btree.searches", "count"},
	{"btree.accesses_per_search", "count"},
	{"swap.fault_share", "ratio"},
	{"metrics.snapshot_s", "s"},
	{"gc.cycles", "count"},
	{"gc.pause_s", "s"},
	{"failed_frac", "ratio"},
	{"trace.accesses_per_s", "1/s"},
	{"trace.overhead", "ratio"},
}
