package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/btree"
	"repro/internal/memmodel"
	"repro/internal/params"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/swap"
)

// btreeResidency scales the swap configuration's resident-page budget
// with the workload so scaled-down runs keep the paper's
// footprint-vs-local-memory ratio.
func btreeResidency(o Options) int {
	r := int(float64(o.P.SwapResidentPages) * o.Scale)
	if r < 64 {
		r = 64
	}
	return r
}

// drawKeys draws the paper's population: n distinct random keys over
// the dense space [0, 4n). A flat bitset dedups with the same
// acceptance sequence as a map at a fraction of the cost — population
// is pure setup, but at paper scale it was the single largest profile
// entry. Sweeps that build one tree per point from the same (seed, n)
// draw the keys once and share the slice; buildTreeFrom never mutates
// it.
func drawKeys(o Options, n int) []uint64 {
	rng := rand.New(rand.NewSource(o.Seed))
	keys := make([]uint64, 0, n)
	seen := make([]bool, int64(n)*4)
	for len(keys) < n {
		k := uint64(rng.Int63n(int64(n) * 4))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// buildTreeFrom bulk-loads the drawn keys at the given fanout so every
// level but the last is full and the last fills left to right.
func buildTreeFrom(fanout int, keys []uint64) (*btree.Tree, error) {
	tr, err := btree.New(fanout)
	if err != nil {
		return nil, err
	}
	if err := tr.BulkLoad(keys); err != nil {
		return nil, err
	}
	return tr, nil
}

// buildTree populates a tree the paper's way: n random keys, bulk-loaded.
func buildTree(o Options, fanout, n int) (*btree.Tree, []uint64, error) {
	keys := drawKeys(o, n)
	tr, err := buildTreeFrom(fanout, keys)
	if err != nil {
		return nil, nil, err
	}
	return tr, keys, nil
}

// minShardSearches is the per-shard floor below which within-point
// sharding isn't worth a pool spin-up.
const minShardSearches = 4096

// searchSweep averages the search cost over random probes. The probe
// keys are drawn up front (the rng sequence is exactly the serial
// loop's — nothing else draws from it), then priced through the batched
// search path. Stateless accessors additionally shard the probe set
// across the runner pool: params.Duration is an integer, so the ordered
// per-shard sums reduce to the exact serial total and the result is
// byte-identical at every -parallel setting. Stateful accessors (swap)
// keep their access sequence serial — their page-cache state is
// order-dependent.
func searchSweep(o Options, tr *btree.Tree, keySpace int64, searches int, acc memmodel.Accessor) params.Duration {
	rng := rand.New(rand.NewSource(o.Seed + 1))
	keys := make([]uint64, searches)
	for i := range keys {
		keys[i] = uint64(rng.Int63n(keySpace))
	}
	serial := func(keys []uint64) params.Duration {
		var b memmodel.Batcher
		var total params.Duration
		for _, k := range keys {
			_, cost, _ := tr.SearchBatch(k, acc, &b)
			total += cost
		}
		return total
	}
	var total params.Duration
	stateless := false
	switch acc.(type) {
	case memmodel.Local, memmodel.Remote:
		stateless = true
	}
	if !stateless || o.Parallel <= 1 || searches < 2*minShardSearches {
		total = serial(keys)
	} else {
		shards := o.Parallel
		if max := searches / minShardSearches; shards > max {
			shards = max
		}
		parts, err := runner.Map(o.Parallel, shards, func(i int) (params.Duration, error) {
			return serial(keys[searches*i/shards : searches*(i+1)/shards]), nil
		})
		if err != nil { // tasks never fail; defensive fallback
			total = serial(keys)
		} else {
			for _, p := range parts {
				total += p
			}
		}
	}
	return params.Duration(float64(total) / float64(searches))
}

// Fig9 sweeps the b-tree fanout (children per node) under remote swap to
// find the optimum: a U-shaped curve with its minimum where a node fills
// exactly one 4 KiB page (~168 children at 24 bytes per entry), the
// paper's headline 168. The remote-memory series is flat by comparison —
// Equation (2) does not care about page locality.
func Fig9(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("fig9", "B-tree search time vs children per node (10M keys, scaled)",
		"children per node", "time per search (µs)")
	swapSeries := fig.AddSeries("remote swap")
	remoteSeries := fig.AddSeries("remote memory")

	nKeys := o.scaled(10_000_000, 20_000)
	searches := o.scaled(500_000, 1_000)
	resident := btreeResidency(o)

	fanouts := []int{8, 16, 32, 64, 96, 128, 168, 200, 256, 384, 512, 768, 1024}
	// Every fanout point populates from the same (seed, n) key set; draw
	// it once and share it read-only across the sweep tasks. Pre-sorting
	// here makes each point's BulkLoad sort near-linear; the built trees
	// are unchanged because BulkLoad sorts its own copy regardless of
	// input order.
	sharedKeys := drawKeys(o, nKeys)
	slices.Sort(sharedKeys)
	type fanoutPoint struct{ swap, remote float64 }
	points, err := runner.Map(o.Parallel, len(fanouts), func(i int) (fanoutPoint, error) {
		fanout := fanouts[i]
		tr, err := buildTreeFrom(fanout, sharedKeys)
		if err != nil {
			return fanoutPoint{}, err
		}
		if tr.FootprintBytes() <= uint64(resident)*params.PageSize {
			return fanoutPoint{}, fmt.Errorf("experiments: fig9 tree (%d bytes) fits in residency; raise Scale", tr.FootprintBytes())
		}
		sw, err := memmodel.NewSwap(o.P, swap.RemoteDevice{P: o.P, Hops: 1}, resident)
		if err != nil {
			return fanoutPoint{}, err
		}
		keySpace := int64(nKeys) * 4
		return fanoutPoint{
			swap:   float64(searchSweep(o, tr, keySpace, searches, sw)) / float64(params.Microsecond),
			remote: float64(searchSweep(o, tr, keySpace, searches, memmodel.Remote{P: o.P, Hops: 1})) / float64(params.Microsecond),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, fanout := range fanouts {
		swapSeries.Add(float64(fanout), points[i].swap)
		remoteSeries.Add(float64(fanout), points[i].remote)
	}
	fig.Note("expected: U-shape for remote swap with minimum near fanout 168 (one node = one page); remote memory nearly flat")
	return fig, nil
}

// Fig10 sweeps the key count at the optimal fanout: remote memory grows
// smoothly with tree depth while remote swap explodes once the tree
// outgrows local residency (page thrashing). The analytic Equation 1/2
// predictions bracket the measured curves.
func Fig10(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("fig10", "B-tree search scalability vs number of keys (fanout 168)",
		"keys in tree", "time per search (µs)")
	remoteSeries := fig.AddSeries("remote memory")
	swapSeries := fig.AddSeries("remote swap")

	searches := o.scaled(500_000, 1_000)
	resident := btreeResidency(o)
	base := o.scaled(10_000_000, 20_000)
	fracs := []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0}
	type sizePoint struct {
		n            int
		remote, swap float64
	}
	points, err := runner.Map(o.Parallel, len(fracs), func(i int) (sizePoint, error) {
		n := int(float64(base) * fracs[i])
		if n < 128 {
			n = 128
		}
		tr, _, err := buildTree(o, 168, n)
		if err != nil {
			return sizePoint{}, err
		}
		sw, err := memmodel.NewSwap(o.P, swap.RemoteDevice{P: o.P, Hops: 1}, resident)
		if err != nil {
			return sizePoint{}, err
		}
		keySpace := int64(n) * 4
		return sizePoint{
			n:      n,
			remote: float64(searchSweep(o, tr, keySpace, searches, memmodel.Remote{P: o.P, Hops: 1})) / float64(params.Microsecond),
			swap:   float64(searchSweep(o, tr, keySpace, searches, sw)) / float64(params.Microsecond),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, pt := range points {
		remoteSeries.Add(float64(pt.n), pt.remote)
		swapSeries.Add(float64(pt.n), pt.swap)
	}
	fig.Note("expected: remote memory grows stepwise with depth; remote swap explodes once the tree outgrows the %d resident pages", resident)
	return fig, nil
}

// Equations cross-checks the closed-form models against the mechanistic
// ones on a uniform-locality trace and reports the crossover locality.
func Equations(o Options) (*stats.Figure, error) {
	fig := stats.NewFigure("eq", "Equations (1) and (2) vs mechanistic models",
		"accesses per resident page (locality)", "total memory time (ms)")
	eq1 := fig.AddSeries("Eq(1) remote swap")
	eq2 := fig.AddSeries("Eq(2) remote memory")
	meas1 := fig.AddSeries("measured swap")
	meas2 := fig.AddSeries("measured remote")

	pages := o.scaled(2000, 100)
	perPages := []int{1, 2, 4, 8, 16, 32, 64, 128}
	type eqPoint struct{ pred1, pred2, meas1, meas2 params.Duration }
	points, err := runner.Map(o.Parallel, len(perPages), func(i int) (eqPoint, error) {
		perPage := perPages[i]
		total := uint64(pages) * uint64(perPage)

		sw, err := memmodel.NewSwap(o.P, swap.RemoteDevice{P: o.P, Hops: 1}, 64)
		if err != nil {
			return eqPoint{}, err
		}
		var pt eqPoint
		rm := memmodel.Remote{P: o.P, Hops: 1}
		ops := make([]memmodel.AccessOp, 0, total)
		for pg := 0; pg < pages; pg++ {
			for j := 0; j < perPage; j++ {
				ops = append(ops, memmodel.AccessOp{Addr: uint64(pg)*params.PageSize + uint64(j*8)})
			}
		}
		pt.meas1 = sw.AccessBatch(ops)
		pt.meas2 = rm.AccessBatch(ops)
		in := anInputs(o, total, float64(perPage))
		if pt.pred1, err = in.RemoteSwapTime(); err != nil {
			return eqPoint{}, err
		}
		if pt.pred2, err = in.RemoteMemoryTime(); err != nil {
			return eqPoint{}, err
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	ms := func(d params.Duration) float64 { return float64(d) / float64(params.Millisecond) }
	for i, perPage := range perPages {
		x := float64(perPage)
		eq1.Add(x, ms(points[i].pred1))
		eq2.Add(x, ms(points[i].pred2))
		meas1.Add(x, ms(points[i].meas1))
		meas2.Add(x, ms(points[i].meas2))
	}
	in := anInputs(o, 1, 1)
	if x, err := in.CrossoverAPage(); err == nil {
		fig.Note("analytic crossover: remote swap overtakes remote memory above %.1f accesses per resident page", x)
	}
	return fig, nil
}
