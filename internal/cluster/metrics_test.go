package cluster

import (
	"runtime"
	"testing"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/sim"
)

// TestMetricsInstrumentation drives local, remote, and phase-change
// traffic through one node and checks every cache/node family registered
// from the cluster layer reports it.
func TestMetricsInstrumentation(t *testing.T) {
	c := build(t)
	n := c.MustNode(1)
	noop := func(sim.Time) {}

	n.Issue(0, 0, cpu.Access{Addr: 0x4000}, false, noop) // local miss
	c.Set().Run()
	remote := addr.Phys(0x8000).WithNode(2)
	n.Issue(c.Set().Now(), 0, cpu.Access{Addr: remote, Write: true}, false, noop)
	c.Set().Run()
	if flushed := n.FlushCaches(c.Set().Now()); flushed == 0 {
		t.Fatal("no dirty lines to flush")
	}

	snap := c.Set().Metrics().Snapshot()
	val := func(name string) float64 {
		v, _ := snap.Value(name, metrics.L("node", "1"))
		return v
	}
	if val(metrics.FamCacheAccesses) == 0 {
		t.Error("cache accesses not counted")
	}
	if val(metrics.FamCacheMisses) == 0 {
		t.Error("cache misses not counted")
	}
	if val(metrics.FamNodeLocalOps) != 1 {
		t.Errorf("local ops = %v, want 1", val(metrics.FamNodeLocalOps))
	}
	if val(metrics.FamNodeRemoteOps) != 1 {
		t.Errorf("remote ops = %v, want 1", val(metrics.FamNodeRemoteOps))
	}
	if val(metrics.FamCacheFlushedDirty) == 0 {
		t.Error("flushed dirty lines not counted")
	}
	// The per-node rollup view carries the same numbers.
	var found bool
	for _, nv := range snap.Nodes() {
		if nv.Node == 1 {
			found = true
			if nv.CacheAccesses == 0 || nv.RemoteOps != 1 {
				t.Errorf("node view = %+v", nv)
			}
		}
	}
	if !found {
		t.Error("node 1 missing from Nodes() view")
	}
}

// TestPrometheusRender16x16Allocs bounds the heap cost of rendering an
// idle 16×16 cluster's snapshot as Prometheus text. Label escaping once
// built a fresh strings.Replacer per label value, which cost about
// 210 bytes allocated per byte of output at this size.
func TestPrometheusRender16x16Allocs(t *testing.T) {
	p := params.Default()
	p.MeshWidth, p.MeshHeight = 16, 16
	c, err := New(sim.WrapEngine(sim.New(), p.HopLatency), p)
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Set().Metrics().Snapshot()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := snap.Prometheus()
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("rendered %d bytes, allocated %d bytes", len(out), allocated)
	// The render allocates its output builder's growth plus a few small
	// strings per sample; 16x the output size leaves room for both.
	if limit := 16 * uint64(len(out)); allocated > limit {
		t.Errorf("rendering %d bytes allocated %d bytes, want at most %d", len(out), allocated, limit)
	}
}
