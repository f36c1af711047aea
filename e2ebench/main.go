// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload through the public functions of each layer for a given
// number of seconds, checks the outputs, and prints every metric by name
// and unit; the last line of its output is one JSON object. See
// README.md beside this file for the workloads and metrics.
//
//	bash e2ebench/run.sh --workload proto4x4_read --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates traced
// and untraced rounds and reports the per-layer metrics, taken from the
// spans recorded around each layer's calls in the traced rounds and from
// the simulator's exact counters.
//
// Every round runs in a fresh process (the same binary with --round),
// so heap, garbage collector and peak resident set size never carry
// from one round to the next.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// instance is one built copy of a workload: setup has run, the timed
// phase has not.
type instance interface {
	run(tr *tracer) error
	finish(tr *tracer) (outcome, error)
}

type workload interface {
	setup(seed int64, tr *tracer) (instance, error)
}

// outcome is what one round produced, read after the timed phase.
type outcome struct {
	Ops       uint64             // operations attempted: accesses, or searches
	Accesses  uint64             // simulated memory accesses completed
	Abandoned uint64             // remote operations the fabric gave up on
	SimTime   int64              // simulated completion (or total priced) time, ps
	Latencies []int64            `json:",omitempty"` // simulated latency of every operation, ps
	Digest    string             // covers every output of the round
	Layers    map[string]float64 // exact per-layer counts
}

// round is the measurement of one setup + run + check cycle, as a round
// process reports it.
type round struct {
	Traced   bool
	Setup    time.Duration
	Run      time.Duration
	CPU      time.Duration // process CPU time over the run phase
	Alloc    uint64        // heap bytes allocated in the run phase
	GCCycles uint32
	GCPause  time.Duration
	PeakRSS  float64 // bytes, the round process's peak
	Out      outcome
	CheckErr string `json:",omitempty"`
	Spans    []span `json:",omitempty"`
}

const (
	// minRounds is the fewest rounds a run makes, so that set-up time
	// and the per-round medians rest on several samples even when the
	// budget is short.
	minRounds = 6
	// maxWall stops starting rounds once a run has taken this long, so
	// the benchmark ends inside its time limit on a slow or loaded host.
	maxWall = 120 * time.Second
	// roundLimit kills a round process that hangs.
	roundLimit = 150 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "run-phase seconds to measure")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	roundIdx := flag.Int("round", -1, "internal: run one round in this process and print it as JSON")
	reference := flag.Bool("reference", false, "internal: print the single-shard reference digest")
	flag.Parse()
	w, ok := workloadsByName()[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	var err error
	switch {
	case *reference:
		err = printReference(w, *seed)
	case *roundIdx >= 0:
		err = printRound(w, *seed, *roundIdx, *trace == 1)
	default:
		err = bench(*name, w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// printRound is the round process: one round, printed as JSON. Only the
// first round reports its latencies; the sim_ metrics read them there.
func printRound(w workload, seed int64, idx int, traced bool) error {
	var tr *tracer
	if traced {
		tr = newTracer()
		tr.run = idx
	}
	r, err := doRound(w, seed, tr)
	if err != nil {
		return err
	}
	if idx > 0 {
		r.Out.Latencies = nil
	}
	if tr != nil {
		r.Spans = tr.spans
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// printReference is the reference process of a sharded workload.
func printReference(w workload, seed int64) error {
	ref, ok := w.(*shardedSpec)
	if !ok {
		return fmt.Errorf("workload has no single-shard reference")
	}
	d, err := ref.reference(seed)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(d)
}

// doRound builds the workload, runs its timed phase and checks it. A
// collection before the run keeps set-up garbage out of the timed phase.
func doRound(w workload, seed int64, tr *tracer) (round, error) {
	r := round{Traced: tr != nil}
	var inst instance
	_, err := tr.step("round", func() error {
		var err error
		if r.Setup, err = tr.step("setup", func() (err error) {
			inst, err = w.setup(seed, tr)
			return err
		}); err != nil {
			return err
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cpu0 := cpuTime()
		if r.Run, err = tr.step("run", func() error { return inst.run(tr) }); err != nil {
			return err
		}
		r.CPU = cpuTime() - cpu0
		runtime.ReadMemStats(&after)
		r.Alloc = after.TotalAlloc - before.TotalAlloc
		r.GCCycles = after.NumGC - before.NumGC
		r.GCPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
		_, err = tr.step("check", func() error {
			out, err := inst.finish(tr)
			r.Out = out
			if err != nil {
				r.CheckErr = err.Error()
			}
			return nil
		})
		return err
	})
	r.PeakRSS = peakRSSBytes()
	return r, err
}

// child runs this binary again with args and decodes its JSON output
// into v. It returns the child's wall time.
func child(args []string, v any) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), roundLimit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%v: %w", args, err)
	}
	wall := time.Since(start)
	if err := json.Unmarshal(out.Bytes(), v); err != nil {
		return 0, fmt.Errorf("%v: decoding output: %w", args, err)
	}
	return wall, nil
}

func bench(name string, w workload, seed int64, seconds time.Duration, traced bool) error {
	start := time.Now()
	base := []string{"--workload", name, "--seed", strconv.FormatInt(seed, 10)}
	var rounds []round
	var walls []time.Duration
	var measured time.Duration
	for i := 0; len(rounds) < minRounds || measured < seconds; i++ {
		if time.Since(start) > maxWall {
			break
		}
		args := append(slices.Clone(base), "--round", strconv.Itoa(i), "--trace", "0")
		if traced && i%2 == 1 {
			args[len(args)-1] = "1"
		}
		var r round
		wall, err := child(args, &r)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "round %d: setup %.4fs run %.4fs cpu %.4fs %.0f accesses/s peak RSS %.1f MiB\n",
			i, r.Setup.Seconds(), r.Run.Seconds(), r.CPU.Seconds(), accessRate(r), r.PeakRSS/(1<<20))
		rounds = append(rounds, r)
		walls = append(walls, wall)
		measured += r.Run
	}

	checks := roundChecks(rounds)
	if _, ok := w.(*shardedSpec); ok && rounds[0].CheckErr == "" {
		var ref string
		if _, err := child(append(base, "--reference"), &ref); err != nil {
			return err
		}
		if err := checkIdentity("sharded run vs single-shard reference", ref, rounds[0].Out.Digest); err != nil {
			rounds[0].CheckErr = err.Error()
			checks = append(checks, fmt.Errorf("round 0: %w", err))
		}
	}
	attempted, failed := failures(rounds)
	for _, err := range checks {
		fmt.Println("check failed:", err)
	}

	var ms []metric
	if traced {
		var err error
		if ms, err = layerMetrics(rounds, walls, attempted, failed); err != nil {
			return err
		}
		if err := writeSpans(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", name, seed)), rounds); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	} else {
		ms = endToEnd(rounds)
	}
	fmt.Printf("workload %s seed %d: %d rounds, %d operations per round, digest %.16s\n",
		name, seed, len(rounds), rounds[0].Out.Ops, rounds[0].Out.Digest)
	return report(ms, len(checks) == 0 && failed == 0, attempted, failed)
}

// roundChecks returns every failed output check: each round's own, and
// any round whose digest differs from the first round's.
func roundChecks(rounds []round) []error {
	var errs []error
	for i := range rounds {
		r := &rounds[i]
		if r.CheckErr == "" && i > 0 && rounds[0].CheckErr == "" {
			if err := checkIdentity(fmt.Sprintf("round %d", i), rounds[0].Out.Digest, r.Out.Digest); err != nil {
				r.CheckErr = err.Error()
			}
		}
		if r.CheckErr != "" {
			errs = append(errs, fmt.Errorf("round %d: %s", i, r.CheckErr))
		}
	}
	return errs
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

func medianOf(rounds []round, f func(round) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return median(xs)
}

func accessRate(r round) float64 { return float64(r.Out.Accesses) / r.Run.Seconds() }

// endToEnd computes the untraced run's metrics. Host times are medians
// over rounds; the sim_ metrics come from the first round, which every
// other round matched digest for digest.
func endToEnd(rounds []round) []metric {
	lat := slices.Clone(rounds[0].Out.Latencies)
	slices.Sort(lat)
	const mib = 1 << 20
	return []metric{
		{"accesses_per_s", "1/s", medianOf(rounds, accessRate)},
		{"setup_s", "s", medianOf(rounds, func(r round) float64 { return r.Setup.Seconds() })},
		{"cpu_s", "s", medianOf(rounds, func(r round) float64 { return r.CPU.Seconds() })},
		{"peak_rss_mb", "MiB", medianOf(rounds, func(r round) float64 { return r.PeakRSS / mib })},
		{"alloc_mb", "MiB", medianOf(rounds, func(r round) float64 { return float64(r.Alloc) / mib })},
		{"sim_time_ms", "ms", float64(rounds[0].Out.SimTime) / 1e9},
		{"sim_latency_p50_us", "us", midQuantile(lat, 0.50) / 1e6},
		{"sim_latency_p99_us", "us", midQuantile(lat, 0.99) / 1e6},
	}
}

// spanMetrics maps span names to the per-layer time metrics read from
// them: the summed busy time of every span of that name in a round.
var spanMetrics = []struct{ span, metric string }{
	{"core.build", "core.build_s"},
	{"memdir.reserve", "memdir.reserve_s"},
	{"workloads.gen", "workloads.gen_s"},
	{"sim.run", "sim.run_s"},
	{"rmc.drain", "rmc.drain_s"},
	{"btree.load", "btree.load_s"},
	{"btree.search", "btree.search_s"},
	{"metrics.snapshot", "metrics.snapshot_s"},
}

// layerMetrics computes the traced run's per-layer metrics: medians over
// the traced rounds, and the tracing overhead against the untraced ones.
// walls are the round processes' wall times, which the self times of
// each round's spans must not exceed.
func layerMetrics(rounds []round, walls []time.Duration, attempted, failed uint64) ([]metric, error) {
	var tracedRounds, plain []round
	perRound := map[string][]float64{}
	for i, r := range rounds {
		if !r.Traced {
			plain = append(plain, r)
			continue
		}
		tracedRounds = append(tracedRounds, r)
		self := selfTimes(r.Spans)
		var selfSum time.Duration
		for _, s := range self {
			selfSum += s
		}
		if selfSum > walls[i] {
			return nil, fmt.Errorf("round %d: span self times sum to %v, more than its %v wall time", i, selfSum, walls[i])
		}
		lt := byName(r.Spans, self)
		vals := map[string]float64{}
		for k, v := range r.Out.Layers {
			vals[k] = v
		}
		for _, sm := range spanMetrics {
			vals[sm.metric] = lt[sm.span].busy.Seconds()
		}
		run, drain := lt["sim.run"], lt["rmc.drain"]
		vals["sim.window_s"] = run.self.Seconds()
		vals["sim.events_per_s"] = ratio(vals["sim.events"], run.busy.Seconds())
		vals["rmc.drain_calls"] = float64(drain.calls)
		vals["rmc.drain_us"] = ratio(drain.busy.Seconds()*1e6, float64(drain.calls))
		vals["cpu.accesses"] = float64(r.Out.Accesses)
		vals["gc.cycles"] = float64(r.GCCycles)
		vals["gc.pause_s"] = r.GCPause.Seconds()
		for k, v := range vals {
			perRound[k] = append(perRound[k], v)
		}
	}
	tracedRate := medianOf(tracedRounds, accessRate)
	plainRate := medianOf(plain, accessRate)
	var ms []metric
	for _, d := range perLayer {
		var v float64
		switch d.name {
		case "failed_frac":
			v = ratio(float64(failed), float64(attempted))
		case "trace.accesses_per_s":
			v = tracedRate
		case "trace.overhead":
			v = ratio(plainRate, tracedRate) - 1
		default:
			v = median(perRound[d.name])
		}
		ms = append(ms, metric{d.name, d.unit, v})
	}
	return ms, nil
}

// report prints every metric by name and unit, then the result object
// as the last line.
func report(ms []metric, correct bool, attempted, failed uint64) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := map[string]value{}
	for _, m := range ms {
		fmt.Printf("%-28s %16.6g %s\n", m.name, m.value, m.unit)
		vals[m.name] = value{m.value, m.unit}
	}
	doc, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, vals})
	if err != nil {
		return err
	}
	fmt.Println(string(doc))
	return nil
}
