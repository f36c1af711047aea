// B-tree search: the paper's database scenario (Section V-B). An index
// too big for one node is stored once and searched under three memory
// configurations — all-local, the prototype's remote memory, and remote
// swap — showing why an in-memory index over RMC-attached memory
// tolerates the cache-hostile access pattern that makes swap thrash,
// and how the swap-optimal fanout is the one that fills a 4 KiB page.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/btree"
	"repro/internal/memmodel"
	"repro/internal/params"
	"repro/internal/swap"
)

func main() {
	p := params.Default()
	const (
		nKeys    = 500_000
		searches = 20_000
		resident = 256 // pages of local memory left for the swapped index
	)

	fmt.Printf("index: %d random keys; %d random searches per configuration\n\n", nKeys, searches)

	rng := rand.New(rand.NewSource(42))
	keys := make([]uint64, 0, nKeys)
	seen := make(map[uint64]bool, nKeys)
	for len(keys) < nKeys {
		k := uint64(rng.Int63n(nKeys * 4))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}

	fmt.Println("fanout sweep under remote swap (the paper's Figure 9):")
	bestFanout, bestTime := 0, params.Duration(0)
	for _, fanout := range []int{32, 96, 168, 256, 512} {
		tr, err := btree.New(fanout)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.BulkLoad(keys); err != nil {
			log.Fatal(err)
		}
		sw, err := memmodel.NewSwap(p, swap.RemoteDevice{P: p, Hops: 1}, resident)
		if err != nil {
			log.Fatal(err)
		}
		perSearch := sweep(tr, sw, searches)
		fmt.Printf("  fanout %4d (node %5d B, depth %d): %8.1f µs/search\n",
			fanout, btree.NodeBytes(fanout), tr.Depth(), us(perSearch))
		if bestFanout == 0 || perSearch < bestTime {
			bestFanout, bestTime = fanout, perSearch
		}
	}
	fmt.Printf("  -> optimum at fanout %d: one node fills one %d B page\n\n", bestFanout, params.PageSize)

	tr, err := btree.New(bestFanout)
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.BulkLoad(keys); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("comparing configurations at fanout %d (index footprint %.1f MB, local residency %.1f MB):\n",
		bestFanout, float64(tr.FootprintBytes())/float64(1<<20), float64(resident*params.PageSize)/float64(1<<20))

	sw, err := memmodel.NewSwap(p, swap.RemoteDevice{P: p, Hops: 1}, resident)
	if err != nil {
		log.Fatal(err)
	}
	configs := []memmodel.Accessor{
		memmodel.Local{P: p},
		memmodel.Remote{P: p, Hops: 1},
		sw,
	}
	var remote, swapT params.Duration
	for _, acc := range configs {
		perSearch := sweep(tr, acc, searches)
		fmt.Printf("  %-14s %10.1f µs/search\n", acc.Name()+":", us(perSearch))
		switch acc.Name() {
		case "remote memory":
			remote = perSearch
		case "remote-swap":
			swapT = perSearch
		}
	}
	fmt.Printf("\nremote memory beats remote swap by %.0fx on this index —\n", float64(swapT)/float64(remote))
	fmt.Println("Equation (2) has no locality term; Equation (1) is all locality.")
}

// sweep averages the cost of random searches, each priced as one batch
// of its modeled accesses (see DESIGN.md §12).
func sweep(tr *btree.Tree, acc memmodel.Accessor, searches int) params.Duration {
	rng := rand.New(rand.NewSource(7))
	var b memmodel.Batcher
	var total params.Duration
	for i := 0; i < searches; i++ {
		_, cost, _ := tr.SearchBatch(uint64(rng.Int63n(int64(tr.Size)*4)), acc, &b)
		total += cost
	}
	return params.Duration(float64(total) / float64(searches))
}

func us(d params.Duration) float64 { return float64(d) / float64(params.Microsecond) }
