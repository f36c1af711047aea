package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// fabricSpec is an event-driven workload: a machine built by
// core.NewSystem and client threads that issue random line accesses
// into memory their node reserved on its servers.
type fabricSpec struct {
	p       params.Params
	clients []clientSpec
	reserve uint64 // bytes a client reserves on each of its servers
}

type clientSpec struct {
	node      addr.NodeID
	servers   []addr.NodeID
	threads   int
	accesses  int // per thread
	writeFrac float64
}

// fabricRun is one built instance of a fabricSpec.
type fabricRun struct {
	sys     *core.System
	threads []*cpu.Thread
	logs    []*latencyLog
	ops     uint64
	intents uint64 // transmissions replayed by the exchange (traced runs only)
}

// latencyLog sits between a thread and its node's memory system and
// records the exact latency of every access. Thread.Latency keeps only
// power-of-two buckets, too coarse for a percentile. The remote window
// is one request, so an access is in flight alone and a single pending
// slot suffices; a second concurrent issue breaks the closed loop the
// workloads promise and panics.
type latencyLog struct {
	cpu.MemorySystem
	lat      []int64
	issuedAt sim.Time
	done     func(sim.Time)
	complete func(sim.Time) // l.finish, bound once so issuing never allocates
}

func newLatencyLog(m cpu.MemorySystem, capacity int) *latencyLog {
	l := &latencyLog{MemorySystem: m, lat: make([]int64, 0, capacity)}
	l.complete = l.finish
	return l
}

func (l *latencyLog) Issue(now sim.Time, core int, a cpu.Access, express bool, done func(sim.Time)) {
	if l.done != nil {
		panic("e2ebench: a thread issued a second access while one was outstanding")
	}
	l.issuedAt, l.done = now, done
	l.MemorySystem.Issue(now, core, a, express, l.complete)
}

func (l *latencyLog) finish(t sim.Time) {
	done := l.done
	l.done = nil
	l.lat = append(l.lat, int64(t-l.issuedAt))
	done(t)
}

// streamSeed gives every thread of every client its own input stream.
func streamSeed(seed int64, node addr.NodeID, thread int) int64 {
	return seed*1_000_003 + int64(node)*104_729 + int64(thread)*7_919
}

func (f *fabricSpec) setup(seed int64, tr *tracer) (instance, error) {
	r := &fabricRun{}
	var err error
	if _, err = tr.step("core.build", func() (err error) {
		r.sys, err = core.NewSystem(f.p)
		return err
	}); err != nil {
		return nil, err
	}
	ranges := make([][]addr.Range, len(f.clients))
	if _, err = tr.step("memdir.reserve", func() error {
		for i, c := range f.clients {
			region, err := r.sys.Region(c.node)
			if err != nil {
				return err
			}
			for _, s := range c.servers {
				rng, err := region.GrowFrom(s, f.reserve)
				if err != nil {
					return fmt.Errorf("node %d reserving on %d: %w", c.node, s, err)
				}
				ranges[i] = append(ranges[i], rng)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var streams [][]cpu.Access
	if _, err = tr.step("workloads.gen", func() error {
		for i, c := range f.clients {
			for t := 0; t < c.threads; t++ {
				s, err := workloads.RandomStream(streamSeed(seed, c.node, t), ranges[i], c.accesses, c.writeFrac)
				if err != nil {
					return err
				}
				accs := make([]cpu.Access, 0, c.accesses)
				for a, ok := s.Next(); ok; a, ok = s.Next() {
					accs = append(accs, a)
				}
				streams = append(streams, accs)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	_, err = tr.step("cpu.threads", func() error {
		for _, c := range f.clients {
			node, err := r.sys.Cluster().Node(c.node)
			if err != nil {
				return err
			}
			for t := 0; t < c.threads; t++ {
				accs := streams[len(r.threads)]
				log := newLatencyLog(node, len(accs))
				th, err := cpu.NewThread(cpu.ThreadConfig{
					Name:         fmt.Sprintf("n%d/t%d", c.node, t),
					Engine:       node.Engine(),
					Memory:       log,
					Stream:       cpu.NewSliceStream(accs),
					Core:         t % f.p.CoresPerNode,
					WindowLocal:  f.p.LocalOutstanding,
					WindowRemote: f.p.RemoteOutstanding,
				})
				if err != nil {
					return err
				}
				th.Start(0)
				r.threads = append(r.threads, th)
				r.logs = append(r.logs, log)
				r.ops += uint64(len(accs))
			}
		}
		return nil
	})
	return r, err
}

// run drives the simulation to completion. A traced run first wraps the
// barrier drain in an aggregate span and counts the exchange's replayed
// transmissions; an untraced run installs nothing.
func (r *fabricRun) run(tr *tracer) error {
	_, err := tr.step("sim.run", func() error {
		if tr != nil {
			ex := r.sys.Cluster().Exchanges()
			drain := tr.aggregate("rmc.drain")
			r.sys.Set().OnBarrier(func(horizon sim.Time) {
				start := time.Now()
				ex.Drain(horizon)
				drain.add(start)
			})
			ex.Trace(func(sim.Time, addr.NodeID, addr.NodeID, uint64) { r.intents++ })
		}
		r.sys.Run()
		return nil
	})
	return err
}

// finish snapshots the metrics registry, checks every thread finished
// with one recorded latency per access, and digests the outputs: thread
// finish times and latencies, and the snapshot without the shard
// schedule families.
func (r *fabricRun) finish(tr *tracer) (outcome, error) {
	out := outcome{Ops: r.ops}
	var snap metrics.Snapshot
	if _, err := tr.step("metrics.snapshot", func() error {
		snap = r.sys.Registry().Snapshot()
		return nil
	}); err != nil {
		return out, err
	}
	h := sha256.New()
	for i, th := range r.threads {
		lat := r.logs[i].lat
		if !th.Done {
			return out, fmt.Errorf("thread %s did not finish", th.Name)
		}
		if th.Issued != th.Latency.N() || uint64(len(lat)) != th.Issued {
			return out, fmt.Errorf("thread %s: %d accesses, %d latency samples, %d logged", th.Name, th.Issued, th.Latency.N(), len(lat))
		}
		var longest int64
		for _, l := range lat {
			longest = max(longest, l)
		}
		if float64(longest) != th.Latency.Max() {
			return out, fmt.Errorf("thread %s: logged max latency %d ps, thread saw %v ps", th.Name, longest, th.Latency.Max())
		}
		fmt.Fprintf(h, "%s %d %d %d %x\n", th.Name, th.Issued, th.StartTime, th.FinishTime, math.Float64bits(th.Latency.Mean()))
		if err := binary.Write(h, binary.LittleEndian, lat); err != nil {
			return out, err
		}
		out.Accesses += th.Issued
		out.SimTime = max(out.SimTime, int64(th.FinishTime))
		out.Latencies = append(out.Latencies, lat...)
	}
	if err := json.NewEncoder(h).Encode(withoutShardFamilies(snap)); err != nil {
		return out, err
	}
	out.Digest = hex.EncodeToString(h.Sum(nil))
	out.Abandoned = uint64(familySum(snap, metrics.FamNodeAbandonedOps))
	out.Layers = r.layers(snap)
	return out, nil
}

// layers reads the exact per-layer counts of a finished run.
func (r *fabricRun) layers(snap metrics.Snapshot) map[string]float64 {
	set := r.sys.Set()
	var events, busiest float64
	for i := 0; i < set.Shards(); i++ {
		n := float64(set.Engine(i).Processed)
		events += n
		busiest = max(busiest, n)
	}
	sum := func(fam string) float64 { return familySum(snap, fam) }
	_, clientUtil := familyStats(snap, metrics.FamRMCClientUtil)
	_, serverUtil := familyStats(snap, metrics.FamRMCServerUtil)
	requests, retries, retransmits := sum(metrics.FamRMCRequests), sum(metrics.FamRMCRetries), sum(metrics.FamRMCRetransmits)
	cacheAccesses := sum(metrics.FamCacheAccesses)
	rowHits, rowConflicts := sum(metrics.FamDRAMRowHits), sum(metrics.FamDRAMRowConflicts)
	l := map[string]float64{
		"memdir.grants":          sum(metrics.FamMemdirGrants),
		"sim.events":             events,
		"sim.barriers":           float64(set.Barriers),
		"sim.windows_elided":     float64(set.Elided),
		"sim.events_per_barrier": ratio(events, float64(set.Barriers)),
		"sim.shard_imbalance":    ratio(busiest, events/float64(set.Shards())),
		"rmc.intents":            float64(r.intents),
		"rmc.requests":           requests,
		"rmc.retries":            retries,
		"rmc.useful_ratio":       ratio(requests, requests+retries+retransmits),
		"rmc.client_util":        clientUtil,
		"rmc.server_util":        serverUtil,
		"mesh.hops":              sum(metrics.FamMeshHops),
		"mesh.link_frames":       sum(metrics.FamMeshLinkFrames),
		"mesh.reroutes":          sum(metrics.FamMeshReroutes),
		"mesh.detour_hops":       sum(metrics.FamMeshDetourHops),
		"hnc.frames":             sum(metrics.FamHNCFrames),
		"hnc.crc_failures":       sum(metrics.FamHNCCRCFailures),
		"hnc.seq_gaps":           sum(metrics.FamHNCSeqGaps),
		"cache.accesses":         cacheAccesses,
		"cache.hit_ratio":        ratio(sum(metrics.FamCacheHits), cacheAccesses),
		"dram.accesses":          sum(metrics.FamDRAMReads) + sum(metrics.FamDRAMWrites),
		"dram.row_hit_ratio":     ratio(rowHits, rowHits+rowConflicts),
		"faults.drops":           sum(metrics.FamFaultDrops),
		"faults.corruptions":     sum(metrics.FamFaultCorruptions),
		"faults.delays":          sum(metrics.FamFaultDelays),
		"rmc.retransmits":        retransmits,
		"rmc.storm_nacks":        sum(metrics.FamRMCStormNACKs),
		"rmc.server_stalls":      sum(metrics.FamRMCStalls),
		"cluster.remote_ops":     sum(metrics.FamNodeRemoteOps),
		"cluster.abandoned_ops":  sum(metrics.FamNodeAbandonedOps),
	}
	return l
}
