package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/params"
)

// FuzzParseSweep feeds arbitrary -sweep specs through the path
// ncdsm-bench takes: every spec ParseSweep accepts has each of its values
// applied to a fresh default parameter set, and building the system from
// the result must either succeed or return an error — a bad value is a
// usage error, never a panic.
func FuzzParseSweep(f *testing.F) {
	for _, seed := range []string{
		"HopLatency=0s",
		"HopLatency=-1ns,100ns",
		"HopLatency=100ns,200ns,300ns",
		"RMCQueueDepth=-3",
		"RMCClientOccupancy=0s,1us",
		"DRAMLatency=2562047h",
		"SwapResidentPages=0",
		"PrefetchDepth=-1,4",
		"RemoteOutstanding=0",
		"Nope=1",
		"K=a,,b",
	} {
		f.Add(seed, uint8(0))
	}
	f.Add("HopLatency=0s", uint8(1))
	f.Fuzz(func(t *testing.T, spec string, shards uint8) {
		key, values, err := ParseSweep(spec)
		if err != nil {
			return
		}
		for _, v := range values {
			p := params.Default()
			p.Shards = 1 + int(shards%2)
			if err := ApplyParam(&p, key, v); err != nil {
				continue
			}
			_, _ = core.NewSystem(p)
		}
	})
}
