package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// familyStats sums the samples of a counter or gauge family across its
// labels (one sample per node, memory controller, link...) and returns
// the largest one too. An absent family reads as zero: families such as
// the recovery counters register only when a fault plan is armed.
func familyStats(s metrics.Snapshot, name string) (sum, max float64) {
	f := s.Family(name)
	if f == nil {
		return 0, 0
	}
	for _, sm := range f.Samples {
		sum += sm.Value
		max = math.Max(max, sm.Value)
	}
	return sum, max
}

func familySum(s metrics.Snapshot, name string) float64 {
	sum, _ := familyStats(s, name)
	return sum
}

// withoutShardFamilies drops the sharded engine's schedule families
// from a snapshot. Barrier counts describe how the run was split across
// shards, not the simulated machine, so they are the one part of a
// snapshot that differs between shard counts.
func withoutShardFamilies(s metrics.Snapshot) metrics.Snapshot {
	var out metrics.Snapshot
	for _, f := range s.Families {
		if !strings.HasPrefix(f.Name, metrics.ShardScheduleFamilyPrefix) {
			out.Families = append(out.Families, f)
		}
	}
	return out
}

// checkIdentity reports a digest that differs from the one wanted.
func checkIdentity(what, want, got string) error {
	if got != want {
		return fmt.Errorf("%s: digest %.16s differs from %.16s", what, got, want)
	}
	return nil
}

// failures counts failed operations: the abandoned ones, and every
// operation of a round whose output check failed, since none of that
// round's results can be trusted.
func failures(rounds []round) (attempted, failed uint64) {
	for _, r := range rounds {
		attempted += r.Out.Ops
		if r.CheckErr != "" {
			failed += r.Out.Ops
		} else {
			failed += r.Out.Abandoned
		}
	}
	return attempted, failed
}

// median returns the middle value (mean of the middle two for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midQuantile returns the sample mid-quantile of sorted samples (Ma,
// Genton and Parzen, 2011): each distinct value v sits at its
// mid-distribution position F(v) - P(v)/2, and straight lines between
// those points are read at q. Simulated latencies fall on a few exact
// values; the plain sample quantile jumps from one to the next, while
// the mid-quantile moves with the share of samples on each.
func midQuantile(sorted []int64, q float64) float64 {
	n := float64(len(sorted))
	var prevPos, prevVal float64
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		pos, v := float64(i+j)/2/n, float64(sorted[i])
		if q <= pos {
			if i == 0 {
				return v
			}
			return prevVal + (v-prevVal)*(q-prevPos)/(pos-prevPos)
		}
		prevPos, prevVal = pos, v
		i = j
	}
	return prevVal
}

// cpuTime returns the CPU time the process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes returns the process's peak resident set size as the
// kernel counts it (getrusage reports KiB on Linux). Every round runs
// in its own process, so this is the round's peak.
func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024
}

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
