package memmodel

import (
	"testing"

	"repro/internal/params"
)

func TestBulkModelAmortization(t *testing.T) {
	p := params.Default()
	m, err := NewBulkModel(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	one := m.BulkRead(1)
	sixtyFour := m.BulkRead(64)
	if one <= 0 || sixtyFour <= one {
		t.Fatalf("BulkRead(1)=%d, BulkRead(64)=%d; want positive and monotone", one, sixtyFour)
	}
	// The redesign's whole point: per-line cost collapses with burst size.
	if perLine := sixtyFour / 64; perLine*4 >= one {
		t.Errorf("per-line cost in a 64-line burst = %d ps vs %d ps single; want at least 4x amortization", perLine, one)
	}
	// Against the analytic scalar model: one burst of 64 lines beats 64
	// dependent analytic round trips.
	scalar := params.Duration(64) * p.RemoteRoundTrip(1)
	if sixtyFour*4 >= scalar {
		t.Errorf("simulated burst %d ps vs analytic 64 round trips %d ps; want at least 4x cheaper", sixtyFour, scalar)
	}
}

func TestBulkModelCachesAndScales(t *testing.T) {
	p := params.Default()
	m, err := NewBulkModel(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := m.BulkRead(128)
	b := m.BulkRead(128)
	if a != b {
		t.Errorf("cached price differs: %d vs %d", a, b)
	}
	near, _ := NewBulkModel(p, 1)
	if near.BulkRead(128) >= m.BulkRead(128) {
		t.Error("price not monotone in hop distance")
	}
	// Writes price through the same machinery.
	if m.BulkWrite(64) <= 0 {
		t.Error("write burst priced at zero")
	}
	// Transfers past one burst's geometry still price (split bursts).
	big := m.BulkRead(p.BurstMaxLines() + 64)
	if big <= m.BulkRead(p.BurstMaxLines()) {
		t.Error("multi-burst transfer not dearer than one burst")
	}
}

func TestBulkModelLocal(t *testing.T) {
	p := params.Default()
	m, err := NewBulkModel(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Local bursts pipeline behind bank occupancy: 64 lines cost at
	// least 64 occupancy slots, far below 64 full DRAM latencies.
	c := m.BulkRead(64)
	if c < 64*params.Duration(p.DRAMOccupancy) {
		t.Errorf("local 64-line burst = %d ps, below the bank's occupancy floor", c)
	}
	if c >= 64*params.Duration(p.DRAMLatency) {
		t.Errorf("local 64-line burst = %d ps; lines did not pipeline", c)
	}
	if m.Name() != "bulk local" {
		t.Errorf("Name = %q", m.Name())
	}
	if _, err := NewBulkModel(p, -1); err == nil {
		t.Error("negative hops accepted")
	}
	// The remote pricer runs on a shard set whose lookahead window is
	// the hop latency, so a non-positive one is refused up front.
	p.HopLatency = 0
	if _, err := NewBulkModel(p, 1); err == nil {
		t.Error("zero HopLatency accepted")
	}
}

// TestBulkModelPinnedPrices pins the simulated burst prices, in ps, that
// examples/database and the db columnar scan consume, at the default
// burst geometry (4096-line bursts) and at a small one (4-line frames,
// 64 frames a burst) where 4096 lines go out as 16 concurrent bursts.
// Sizes cover one line, a partial frame, one 64-line burst, a full
// burst, a full burst plus one more, and 4096 lines.
func TestBulkModelPinnedPrices(t *testing.T) {
	type price struct {
		hops, lines int
		read, write params.Duration
	}
	geometries := []struct {
		frameLines, maxFrames int
		want                  []price
	}{
		{0, 0, []price{
			{1, 1, 908000, 908000},
			{1, 7, 1064000, 1064000},
			{1, 64, 2114000, 2004000},
			{1, 4096, 70658000, 70548000},
			{1, 4160, 71746000, 71636000},
			{3, 1, 1484000, 1484000},
			{3, 7, 1832000, 1832000},
			{3, 64, 3170000, 3060000},
			{3, 4096, 71714000, 71604000},
			{3, 4160, 72802000, 72692000},
			{6, 1, 2348000, 2348000},
			{6, 7, 2984000, 2984000},
			{6, 64, 4754000, 4644000},
			{6, 4096, 73298000, 73188000},
			{6, 4160, 74386000, 74276000},
		}},
		{4, 64, []price{
			{1, 1, 908000, 908000},
			{1, 7, 1050000, 1016000},
			{1, 64, 2186000, 2076000},
			{1, 256, 6026000, 5916000},
			{1, 320, 7306000, 7196000},
			{1, 4096, 113446000, 113336000},
			{3, 1, 1484000, 1484000},
			{3, 7, 1722000, 1688000},
			{3, 64, 2858000, 2748000},
			{3, 256, 6698000, 6588000},
			{3, 320, 7978000, 7868000},
			{3, 4096, 114118000, 114008000},
			{6, 1, 2348000, 2348000},
			{6, 7, 2730000, 2696000},
			{6, 64, 3866000, 3756000},
			{6, 256, 7706000, 7596000},
			{6, 320, 8986000, 8876000},
			{6, 4096, 115126000, 115016000},
		}},
	}
	for _, g := range geometries {
		p := params.Default()
		p.BulkFrameLines, p.BulkMaxFrames = g.frameLines, g.maxFrames
		for _, w := range g.want {
			m, err := NewBulkModel(p, w.hops)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.BulkRead(w.lines); got != w.read {
				t.Errorf("geometry %d×%d, %d hops: BulkRead(%d) = %d ps, want %d", g.frameLines, g.maxFrames, w.hops, w.lines, got, w.read)
			}
			if got := m.BulkWrite(w.lines); got != w.write {
				t.Errorf("geometry %d×%d, %d hops: BulkWrite(%d) = %d ps, want %d", g.frameLines, g.maxFrames, w.hops, w.lines, got, w.write)
			}
		}
	}
}
