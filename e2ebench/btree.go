package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/btree"
	"repro/internal/memmodel"
	"repro/internal/params"
	"repro/internal/swap"
)

// btreeSpec is the macro-layer workload of Figures 9 and 10: b-trees
// bulk-loaded at several fanouts, searched under a remote-swap accessor
// whose page cache is smaller than every tree, and under plain remote
// memory. No event engine is involved.
type btreeSpec struct {
	p        params.Params
	fanouts  []int
	keys     int // keys loaded into every tree
	searches int // searches per tree and accessor
	resident int // swap page-cache capacity in pages
	hops     int // distance to the memory server
}

// search is one priced lookup.
type search struct {
	found    bool
	cost     params.Duration
	accesses uint64
}

type btreeRun struct {
	spec    *btreeSpec
	keys    []uint64 // loaded keys, all even
	probes  []uint64 // alternately a loaded key and an odd, absent one
	trees   []*btree.Tree
	swaps   []*memmodel.Swap // one cold page cache per tree
	results [][]search       // per tree and accessor: swap, then remote
}

// drawKeys returns n distinct even keys below 4n and the probe list:
// loaded keys and odd keys, which no tree holds, in turn.
func drawKeys(seed int64, n, probes int) (keys, probe []uint64) {
	rng := rand.New(rand.NewSource(seed))
	seen := make([]bool, 2*n)
	keys = make([]uint64, 0, n)
	for len(keys) < n {
		v := rng.Intn(2 * n)
		if !seen[v] {
			seen[v] = true
			keys = append(keys, 2*uint64(v))
		}
	}
	probe = make([]uint64, probes)
	for i := range probe {
		if i%2 == 0 {
			probe[i] = keys[rng.Intn(n)]
		} else {
			probe[i] = 2*uint64(rng.Intn(2*n)) + 1
		}
	}
	return keys, probe
}

func (b *btreeSpec) setup(seed int64, tr *tracer) (instance, error) {
	r := &btreeRun{spec: b}
	if _, err := tr.step("workloads.gen", func() error {
		r.keys, r.probes = drawKeys(seed, b.keys, b.searches)
		return nil
	}); err != nil {
		return nil, err
	}
	if _, err := tr.step("btree.load", func() error {
		for _, f := range b.fanouts {
			t, err := btree.New(f)
			if err != nil {
				return err
			}
			if err := t.BulkLoad(r.keys); err != nil {
				return err
			}
			r.trees = append(r.trees, t)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	_, err := tr.step("memmodel.new", func() error {
		for _, t := range r.trees {
			if pages := t.FootprintBytes() / params.PageSize; pages <= uint64(b.resident) {
				return fmt.Errorf("fanout %d tree spans %d pages, within the %d-page swap cache", t.MaxChildren(), pages, b.resident)
			}
			sw, err := memmodel.NewSwap(b.p, swap.RemoteDevice{P: b.p, Hops: b.hops}, b.resident)
			if err != nil {
				return err
			}
			r.swaps = append(r.swaps, sw)
			for range 2 {
				r.results = append(r.results, make([]search, len(r.probes)))
			}
		}
		return nil
	})
	return r, err
}

func (r *btreeRun) run(tr *tracer) error {
	remote := memmodel.Remote{P: r.spec.p, Hops: r.spec.hops}
	var bt memmodel.Batcher
	for i, t := range r.trees {
		for a, acc := range []memmodel.Accessor{r.swaps[i], remote} {
			res := r.results[2*i+a]
			if _, err := tr.step("btree.search", func() error {
				for j, k := range r.probes {
					s := &res[j]
					s.found, s.cost, s.accesses = t.SearchBatch(k, acc, &bt)
				}
				return nil
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish checks the trees and every search result and digests them.
func (r *btreeRun) finish(tr *tracer) (outcome, error) {
	out := outcome{}
	for _, res := range r.results {
		out.Ops += uint64(len(res))
	}
	err := r.check(tr)
	if err != nil {
		return out, err
	}
	h := sha256.New()
	var swapTime float64
	buf := make([]byte, 0, 17*len(r.probes))
	for i, res := range r.results {
		buf = buf[:0]
		for _, s := range res {
			if s.found {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
			buf = binary.LittleEndian.AppendUint64(buf, uint64(s.cost))
			buf = binary.LittleEndian.AppendUint64(buf, s.accesses)
			out.Accesses += s.accesses
			out.SimTime += int64(s.cost)
			out.Latencies = append(out.Latencies, int64(s.cost))
			if i%2 == 0 {
				swapTime += float64(s.cost)
			}
		}
		h.Write(buf)
	}
	var faultTime float64
	for _, sw := range r.swaps {
		fmt.Fprintf(h, "%d\n", sw.FaultTime)
		faultTime += float64(sw.FaultTime)
	}
	out.Digest = hex.EncodeToString(h.Sum(nil))
	out.Layers = map[string]float64{
		"btree.searches":            float64(out.Ops),
		"btree.accesses_per_search": ratio(float64(out.Accesses), float64(out.Ops)),
		"swap.fault_share":          ratio(faultTime, swapTime),
	}
	return out, nil
}

// check validates the trees' structure and contents and every search
// result: a probe is found exactly when it is a loaded (even) key.
func (r *btreeRun) check(tr *tracer) error {
	_, err := tr.step("btree.check", func() error {
		sorted := slices.Clone(r.keys)
		slices.Sort(sorted)
		for _, t := range r.trees {
			if err := t.CheckInvariants(); err != nil {
				return fmt.Errorf("fanout %d: %w", t.MaxChildren(), err)
			}
			i := 0
			mismatch := false
			t.Walk(func(k uint64) {
				if i >= len(sorted) || sorted[i] != k {
					mismatch = true
				}
				i++
			})
			if mismatch || i != len(sorted) {
				return fmt.Errorf("fanout %d: in-order walk does not match the %d loaded keys", t.MaxChildren(), len(sorted))
			}
		}
		for i, res := range r.results {
			for j, s := range res {
				if want := r.probes[j]%2 == 0; s.found != want {
					return fmt.Errorf("search set %d: key %d found=%v, want %v", i, r.probes[j], s.found, want)
				}
			}
		}
		return nil
	})
	return err
}
