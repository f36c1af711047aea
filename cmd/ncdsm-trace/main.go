// Command ncdsm-trace records memory-access traces from the built-in
// workload generators and replays them against any memory configuration
// — the reproducibility loop: capture one exact access sequence, then
// price the *same* sequence under local memory, the prototype's remote
// memory, or remote swap.
//
// Usage:
//
//	ncdsm-trace -record random -accesses 100000 -out run.trace
//	ncdsm-trace -record canneal -out canneal.trace
//	ncdsm-trace -replay run.trace -config remote -hops 2
//	ncdsm-trace -replay run.trace -config all
//	ncdsm-trace -info run.trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/memmodel"
	"repro/internal/params"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	var (
		record   = flag.String("record", "", "workload to record: random, blackscholes, raytrace, canneal, streamcluster")
		accesses = flag.Int("accesses", 100000, "accesses to record (random workload)")
		out      = flag.String("out", "", "output trace file (record mode)")
		replay   = flag.String("replay", "", "trace file to replay")
		config   = flag.String("config", "all", "replay configuration: local, remote, remote-swap, disk-swap, all")
		hops     = flag.Int("hops", 1, "hop distance for remote configurations")
		resident = flag.Int("resident", 0, "resident pages for swap configurations (0 = default)")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		info     = flag.String("info", "", "print a trace file's summary")
	)
	flag.Parse()

	switch {
	case *record != "":
		if *out == "" {
			fatal(errors.New("-record needs -out"))
		}
		if err := doRecord(*record, *out, *accesses, *seed); err != nil {
			fatal(err)
		}
	case *replay != "":
		if err := doReplay(*replay, *config, *hops, *resident); err != nil {
			fatal(err)
		}
	case *info != "":
		if err := doInfo(*info); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ncdsm-trace:", err)
	os.Exit(1)
}

// doRecord captures a workload's access stream into a trace file.
func doRecord(workload, out string, accesses int, seed int64) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		return err
	}

	p := params.Default()
	emit := func(a uint64, write bool) error {
		return w.Add(trace.Record{Addr: a, Write: write})
	}
	switch workload {
	case "random":
		// Uniform random word accesses over a 64 MB buffer, 20% writes —
		// the microbenchmark's pattern in macro-layer address space.
		rng := newRand(seed)
		for i := 0; i < accesses; i++ {
			a := uint64(rng.Int63n(64<<20/8)) * 8
			if err := emit(a, rng.Float64() < 0.2); err != nil {
				return err
			}
		}
	case "blackscholes", "raytrace", "canneal", "streamcluster":
		var k workloads.Kernel
		for _, cand := range workloads.ParsecSuite(p) {
			if cand.Name == workload {
				k = cand
			}
		}
		rec := &recordingAccessor{w: w}
		k.Run(rec, seed)
		if rec.err != nil {
			return rec.err
		}
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d accesses to %s\n", w.Count(), out)
	return nil
}

// recordingAccessor captures a kernel's stream without pricing it.
type recordingAccessor struct {
	w   *trace.Writer
	err error
}

func (r *recordingAccessor) AccessBatch(ops []memmodel.AccessOp) params.Duration {
	for _, op := range ops {
		if r.err != nil {
			break
		}
		r.err = r.w.Add(trace.Record{Addr: op.Addr, Write: op.Write})
	}
	return 0
}

func (r *recordingAccessor) Name() string { return "recorder" }

// doReplay prices a trace under the requested configuration(s).
func doReplay(path, config string, hops, resident int) error {
	p := params.Default()
	if resident <= 0 {
		resident = p.SwapResidentPages
	}
	configs := map[string]memmodel.Config{
		"local":       memmodel.ConfigLocal,
		"remote":      memmodel.ConfigRemote,
		"remote-swap": memmodel.ConfigRemoteSwap,
		"disk-swap":   memmodel.ConfigDiskSwap,
	}
	var names []string
	if config == "all" {
		names = []string{"local", "remote", "remote-swap"}
	} else {
		if _, ok := configs[config]; !ok {
			return fmt.Errorf("unknown config %q", config)
		}
		names = []string{config}
	}
	fmt.Printf("%-14s %14s %14s %14s\n", "configuration", "accesses", "mem time (ms)", "ns/access")
	for _, name := range names {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		r, err := trace.NewReader(f)
		if err != nil {
			f.Close()
			return err
		}
		acc, err := memmodel.Build(configs[name], p, hops, resident)
		if err != nil {
			f.Close()
			return err
		}
		total, n, err := r.Replay(acc)
		f.Close()
		if err != nil {
			return err
		}
		if n == 0 {
			return errors.New("empty trace")
		}
		fmt.Printf("%-14s %14d %14.2f %14.1f\n", name, n,
			float64(total)/float64(params.Millisecond),
			float64(total)/float64(n)/float64(params.Nanosecond))
	}
	return nil
}

// doInfo summarizes a trace.
func doInfo(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	var n, writes uint64
	var minA, maxA uint64
	pages := map[uint64]bool{}
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if n == 0 {
			minA, maxA = rec.Addr, rec.Addr
		}
		if rec.Addr < minA {
			minA = rec.Addr
		}
		if rec.Addr > maxA {
			maxA = rec.Addr
		}
		if rec.Write {
			writes++
		}
		pages[rec.Addr/params.PageSize] = true
		n++
	}
	if n == 0 {
		return errors.New("empty trace")
	}
	fmt.Printf("accesses:   %d (%.1f%% writes)\n", n, 100*float64(writes)/float64(n))
	fmt.Printf("span:       [%#x, %#x]\n", minA, maxA)
	fmt.Printf("pages:      %d distinct (%.1f MB touched)\n", len(pages),
		float64(len(pages))*params.PageSize/float64(1<<20))
	fmt.Printf("locality:   %.1f accesses per touched page\n", float64(n)/float64(len(pages)))
	return nil
}

// newRand isolates the single math/rand use so the rest of the file
// stays source-of-randomness agnostic.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
