package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/sim"
)

func TestFamilyStatsSumsLabelledCounter(t *testing.T) {
	reg := metrics.NewRegistry()
	for node, n := range map[string]uint64{"1": 3, "2": 11, "3": 5} {
		reg.Counter(metrics.FamRMCRequests, "requests", metrics.L("node", node)).Add(n)
	}
	reg.Counter(metrics.FamRMCRetries, "retries", metrics.L("node", "1")).Add(100)
	snap := reg.Snapshot()
	if sum, max := familyStats(snap, metrics.FamRMCRequests); sum != 19 || max != 11 {
		t.Errorf("requests: sum %v max %v, want 19 and 11", sum, max)
	}
	if sum := familySum(snap, metrics.FamRMCRetransmits); sum != 0 {
		t.Errorf("absent family sums to %v, want 0", sum)
	}
}

func TestSelfTimesOfNestedSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "round", Busy: 100 * ms, Count: 1},
		{ID: 1, Parent: 0, Name: "sim.run", Busy: 60 * ms, Count: 1},
		{ID: 2, Parent: 1, Name: "rmc.drain", Busy: 25 * ms, Count: 400},
		{ID: 3, Parent: 0, Name: "check", Busy: 30 * ms, Count: 1},
		{ID: 4, Parent: 3, Name: "metrics.snapshot", Busy: 30 * ms, Count: 1},
	}
	want := []time.Duration{10 * ms, 35 * ms, 25 * ms, 0, 30 * ms}
	got := selfTimes(spans)
	if !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	var sum time.Duration
	for _, s := range got {
		sum += s
	}
	if sum != spans[0].Busy {
		t.Errorf("self times sum to %v, want the root's %v", sum, spans[0].Busy)
	}
}

func TestTracerNestsStepsAndAggregates(t *testing.T) {
	tr := newTracer()
	tr.run = 3
	tr.step("round", func() error {
		tr.step("sim.run", func() error {
			drain := tr.aggregate("rmc.drain")
			for i := 0; i < 3; i++ {
				drain.add(time.Now())
			}
			return nil
		})
		return nil
	})
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	round, run, drain := tr.spans[0], tr.spans[1], tr.spans[2]
	if round.Parent != -1 || run.Parent != 0 || drain.Parent != 1 {
		t.Errorf("parents %d %d %d, want -1 0 1", round.Parent, run.Parent, drain.Parent)
	}
	if drain.Count != 3 || run.Count != 1 || drain.Run != 3 {
		t.Errorf("drain count %d run %d, run count %d", drain.Count, drain.Run, run.Count)
	}
	if drain.Busy > run.Busy || run.Busy > round.Busy || drain.Start < run.Start || drain.End > run.End {
		t.Errorf("child spans escape their parents: %+v", tr.spans)
	}
	lt := byName(tr.spans, selfTimes(tr.spans))
	if lt["rmc.drain"].calls != 3 || lt["sim.run"].self != run.Busy-drain.Busy {
		t.Errorf("round layers %+v", lt)
	}
}

// A multi-shard registry carries the barrier families a single-shard one
// lacks; filtered, the two snapshots are identical.
func TestWithoutShardFamilies(t *testing.T) {
	w := params.Default().HopLatency
	sharded := sim.NewShardSet(2, w).Metrics().Snapshot()
	single := sim.WrapEngine(sim.New(), w).Metrics().Snapshot()
	if sharded.Family(metrics.FamShardBarriers) == nil {
		t.Fatalf("sharded snapshot lacks %s:\n%s", metrics.FamShardBarriers, sharded.JSON())
	}
	got := withoutShardFamilies(sharded)
	for _, f := range got.Families {
		if strings.HasPrefix(f.Name, metrics.ShardScheduleFamilyPrefix) {
			t.Errorf("filter kept %s", f.Name)
		}
	}
	if got.JSON() != single.JSON() {
		t.Errorf("filtered sharded snapshot\n%s\ndiffers from the single-shard one\n%s", got.JSON(), single.JSON())
	}
}

func TestCheckIdentityRejectsMismatch(t *testing.T) {
	if err := checkIdentity("round 1", "ab12", "ab12"); err != nil {
		t.Errorf("equal digests rejected: %v", err)
	}
	if err := checkIdentity("round 1", "ab12", "ab13"); err == nil || !strings.Contains(err.Error(), "round 1") {
		t.Errorf("mismatch not reported for round 1: %v", err)
	}
}

// A small sharded fabric matches its single-shard reference, and a
// corrupted round digest fails the run's checks.
func TestShardedReferenceAndRoundIdentity(t *testing.T) {
	p := params.Default()
	p.Shards = 2
	spec := &shardedSpec{fabricSpec{p: p, reserve: 1 << 20, clients: []clientSpec{
		{node: 1, servers: []addr.NodeID{16}, threads: 2, accesses: 50},
		{node: 16, servers: []addr.NodeID{1}, threads: 1, accesses: 50, writeFrac: 0.3},
	}}}
	var rounds []round
	for i := 0; i < 2; i++ {
		r, err := doRound(spec, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, r)
	}
	ref, err := spec.reference(5)
	if err != nil {
		t.Fatal(err)
	}
	if ref != rounds[0].Out.Digest {
		t.Errorf("two-shard digest %.16s differs from the single-shard %.16s", rounds[0].Out.Digest, ref)
	}
	if errs := roundChecks(rounds); len(errs) != 0 {
		t.Errorf("identical rounds failed checks: %v", errs)
	}
	rounds[1].Out.Digest = "0000"
	if errs := roundChecks(rounds); len(errs) != 1 || rounds[1].CheckErr == "" {
		t.Errorf("corrupted digest not rejected: %v", errs)
	}
}

func TestFailuresCountFailedCheckAsAllOperations(t *testing.T) {
	attempted, failed := failures([]round{
		{Out: outcome{Ops: 100}},
		{Out: outcome{Ops: 50, Abandoned: 3}, CheckErr: "wrong result"},
		{Out: outcome{Ops: 10, Abandoned: 2}},
	})
	if attempted != 160 || failed != 52 {
		t.Errorf("attempted %d failed %d, want 160 and 52", attempted, failed)
	}
}

func TestMidQuantile(t *testing.T) {
	cases := []struct {
		xs   []int64
		q    float64
		want float64
	}{
		{[]int64{7}, 0.99, 7},
		{[]int64{1, 2, 3, 4}, 0.5, 2.5},
		{[]int64{10, 10, 10, 20}, 0.3, 10},   // mid-positions 0.375 and 0.875
		{[]int64{10, 10, 10, 20}, 0.625, 15}, // halfway between them
		{[]int64{10, 10, 10, 20}, 0.5, 12.5},
		{[]int64{10, 10, 10, 20}, 0.99, 20},
	}
	for _, c := range cases {
		if got := midQuantile(c.xs, c.q); got != c.want {
			t.Errorf("midQuantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}

// Every workload runs one traced round with its output checks passing,
// and every per-layer metric is exercised by some workload: a misnamed
// span or counter would read 0 everywhere.
func TestWorkloadsPassChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload")
	}
	// Healthy runs keep these at 0: no failures, no collections in the
	// (allocation-free) run phase.
	zero := []string{"failed_frac", "cluster.abandoned_ops", "gc.cycles", "gc.pause_s"}
	exercised := map[string]bool{}
	for name, w := range workloadsByName() {
		tr := newTracer()
		r, err := doRound(w, 1, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.CheckErr != "" || r.Out.Abandoned != 0 || r.Out.Accesses == 0 {
			t.Errorf("%s: check %q, %d abandoned, %d accesses", name, r.CheckErr, r.Out.Abandoned, r.Out.Accesses)
		}
		r.Spans = tr.spans
		ms, err := layerMetrics([]round{r}, []time.Duration{time.Since(tr.origin)}, r.Out.Ops, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range ms {
			if m.value != 0 {
				exercised[m.name] = true
			}
		}
	}
	for _, d := range perLayer {
		if !exercised[d.name] && !slices.Contains(zero, d.name) {
			t.Errorf("%s reads 0 on every workload", d.name)
		}
	}
}

// BENCHMARK.json names exactly the workloads and metrics this program
// reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range doc.Workloads {
		wl = append(wl, w.Name)
	}
	for name := range workloadsByName() {
		if !slices.Contains(wl, name) {
			t.Errorf("workload %s missing from BENCHMARK.json", name)
		}
	}
	if len(wl) != len(workloadsByName()) {
		t.Errorf("BENCHMARK.json names %d workloads, the program %d", len(wl), len(workloadsByName()))
	}
	e2e := endToEnd([]round{{Run: time.Second, Out: outcome{Latencies: []int64{1}}}})
	compare := func(kind string, want []named, got []metric) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(want), len(got))
			return
		}
		for i, m := range got {
			if want[i].Name != m.name || want[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, want[i].Name, want[i].Unit, m.name, m.unit)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, e2e)
	var layers []metric
	for _, d := range perLayer {
		layers = append(layers, metric{name: d.name, unit: d.unit})
	}
	compare("per_layer", doc.PerLayer, layers)
}
