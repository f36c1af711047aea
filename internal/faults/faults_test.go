package faults

import (
	"testing"

	"repro/internal/addr"
)

func mustParse(t *testing.T, spec string) *Plan {
	t.Helper()
	p, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return p
}

func TestParseStringRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"seed=1",
		"seed=7,drop=0.01",
		"seed=2,drop=0.01,corrupt=0.002,delayp=0.02,delay=300ns",
		"seed=3,down=6-7@0:50us",
		"seed=4,drop=0.1,down=2-6@10us:20us,down=6-7@0:50us,storm=6@1us:2us,stall=7@5us:9us",
	} {
		p := mustParse(t, spec)
		rendered := p.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("String() of %q produced unparseable %q: %v", spec, rendered, err)
		}
		if got := again.String(); got != rendered {
			t.Errorf("round trip not a fixed point: %q -> %q", rendered, got)
		}
	}
}

func TestStringCanonicalOrder(t *testing.T) {
	// The same schedule written in two different orders renders once.
	a := mustParse(t, "stall=7@5us:9us,down=6-7@0:50us,drop=0.1,seed=4,storm=6@1us:2us,down=2-6@10us:20us")
	b := mustParse(t, "seed=4,drop=0.1,down=2-6@10us:20us,down=6-7@0:50us,storm=6@1us:2us,stall=7@5us:9us")
	if a.String() != b.String() {
		t.Errorf("order-dependent rendering:\n%s\n%s", a, b)
	}
	// Windows that share a start render in end order.
	a = mustParse(t, "storm=6@0:5us,storm=6@0:3us,down=6-7@0:9us,down=6-7@0:2us")
	b = mustParse(t, "storm=6@0:3us,storm=6@0:5us,down=6-7@0:2us,down=6-7@0:9us")
	if a.String() != b.String() {
		t.Errorf("order-dependent rendering of same-start windows:\n%s\n%s", a, b)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus=1",          // unknown key
		"drop",             // not key=value
		"drop=1.5",         // probability out of range
		"drop=-0.1",        // negative probability
		"delayp=0.5",       // delay probability without a duration
		"delay=300",        // duration without unit
		"down=6@0:1us",     // link spec missing -B
		"down=6-6@0:1us",   // self link
		"down=0-1@0:1us",   // node 0
		"down=6-7@5us:5us", // empty window
		"down=6-7@5us:1us", // inverted window
		"storm=6@1us",      // window missing :end
		"stall=x@0:1us",    // non-numeric node
		"seed=abc",         // non-numeric seed
		"drop=NaN",         // non-finite probabilities
		"corrupt=NaN",
		"delayp=NaN,delay=300ns",
		"drop=Inf",
		"delayp=0.5,delay=NaNns", // non-finite and overflowing durations
		"down=6-7@0:1e300s",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestEmpty(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Error("nil plan not empty")
	}
	if !mustParse(t, "").Empty() {
		t.Error("blank spec not empty")
	}
	// A seed alone schedules nothing.
	if !mustParse(t, "seed=42").Empty() {
		t.Error("seed-only plan not empty")
	}
	for _, spec := range []string{"drop=0.1", "corrupt=0.1", "delayp=0.1,delay=1ns",
		"down=1-2@0:1us", "storm=1@0:1us", "stall=1@0:1us"} {
		if mustParse(t, spec).Empty() {
			t.Errorf("plan %q reported empty", spec)
		}
	}
}

func TestWindowSemantics(t *testing.T) {
	w := Window{Start: 10, End: 20}
	for _, c := range []struct {
		t    int64
		want bool
	}{{9, false}, {10, true}, {19, true}, {20, false}} {
		if got := w.Contains(c.t); got != c.want {
			t.Errorf("[10,20).Contains(%d) = %v", c.t, got)
		}
	}
}

// TestInjectorDeterminism is the property everything downstream leans
// on: the same plan replays the same fault sequence exactly, and a
// different seed produces a different one.
func TestInjectorDeterminism(t *testing.T) {
	roll := func(seed int64) []bool {
		in := NewInjector(&Plan{Seed: seed, Drop: 0.3, Corrupt: 0.1, Delay: 0.2, DelayBy: 100})
		var seq []bool
		for i := 0; i < 2000; i++ {
			seq = append(seq, in.RollDrop(), in.RollCorrupt())
			_, d := in.RollDelay()
			seq = append(seq, d)
		}
		return seq
	}
	a, b := roll(7), roll(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at roll %d", i)
		}
	}
	c := roll(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical 6000-roll sequences")
	}
}

// TestZeroProbabilityConsumesNoRandomness: disabling one fault class
// must not shift the stream consumed by the others, so plans compose
// without perturbing each other's schedules.
func TestZeroProbabilityConsumesNoRandomness(t *testing.T) {
	drops := func(corrupt float64) []bool {
		in := NewInjector(&Plan{Seed: 5, Drop: 0.5, Corrupt: corrupt})
		var seq []bool
		for i := 0; i < 500; i++ {
			if corrupt == 0 {
				in.RollCorrupt() // must be a no-op on the stream
			}
			seq = append(seq, in.RollDrop())
		}
		return seq
	}
	plain := drops(0)
	in := NewInjector(&Plan{Seed: 5, Drop: 0.5})
	for i := 0; i < 500; i++ {
		if got := in.RollDrop(); got != plain[i] {
			t.Fatalf("zero-probability corrupt roll consumed randomness (drop %d differs)", i)
		}
	}
}

func TestInjectorCounters(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1, Drop: 1, Corrupt: 1, Delay: 1, DelayBy: 300})
	if !in.RollDrop() || !in.RollCorrupt() {
		t.Fatal("probability-1 roll missed")
	}
	if d, ok := in.RollDelay(); !ok || d != 300 {
		t.Fatalf("RollDelay = %d, %v", d, ok)
	}
	if in.Drops != 1 || in.Corruptions != 1 || in.Delays != 1 {
		t.Errorf("counters = %d/%d/%d, want 1/1/1", in.Drops, in.Corruptions, in.Delays)
	}
}

func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if in.RollDrop() || in.RollCorrupt() {
		t.Error("nil injector rolled a fault")
	}
	if _, ok := in.RollDelay(); ok {
		t.Error("nil injector rolled a delay")
	}
	if in.LinkDown(1, 2, 0) || in.NackStorm(1, 0) {
		t.Error("nil injector scheduled a fault")
	}
}

func TestLinkDownBidirectional(t *testing.T) {
	in := NewInjector(mustParse(t, "down=6-7@10us:20us"))
	const us = 1_000_000
	for _, c := range []struct {
		a, b uint16
		t    int64
		want bool
	}{
		{6, 7, 15 * us, true},
		{7, 6, 15 * us, true}, // pulled cable: both directions
		{6, 7, 9 * us, false},
		{6, 7, 20 * us, false}, // half-open end
		{6, 5, 15 * us, false}, // other links unaffected
	} {
		if got := in.LinkDown(addr.NodeID(c.a), addr.NodeID(c.b), c.t); got != c.want {
			t.Errorf("LinkDown(%d,%d,@%dus) = %v", c.a, c.b, c.t/us, got)
		}
	}
}

func TestNodeWindows(t *testing.T) {
	in := NewInjector(mustParse(t, "storm=6@1us:2us"))
	const us = 1_000_000
	if !in.NackStorm(6, 1*us) || in.NackStorm(6, 2*us) || in.NackStorm(7, 1*us) {
		t.Error("storm window misapplied")
	}
}

func TestMangleCRC(t *testing.T) {
	in := NewInjector(&Plan{Seed: 3})
	for i := 0; i < 100; i++ {
		crc := uint32(0xdeadbeef)
		got := in.MangleCRC(crc)
		if got == crc {
			t.Fatal("MangleCRC returned the input unchanged")
		}
		if diff := got ^ crc; diff&(diff-1) != 0 {
			t.Fatalf("MangleCRC flipped more than one bit: %#x", diff)
		}
	}
}

func TestDurationFormats(t *testing.T) {
	for _, c := range []struct {
		in string
		ps int64
	}{
		{"0", 0}, {"7ps", 7}, {"300ns", 300_000}, {"1.5us", 1_500_000},
		{"2µs", 2_000_000}, {"4ms", 4_000_000_000_000 / 1000}, {"1s", 1_000_000_000_000},
	} {
		got, err := parseDuration(c.in)
		if err != nil || got != c.ps {
			t.Errorf("parseDuration(%q) = %d, %v; want %d", c.in, got, err, c.ps)
		}
	}
	for _, ps := range []int64{0, 1, 999, 1000, 300_000, 1_500_000, 1_000_000_000_000} {
		s := formatDuration(ps)
		back, err := parseDuration(s)
		if err != nil || back != ps {
			t.Errorf("formatDuration(%d) = %q, parses back to %d, %v", ps, s, back, err)
		}
	}
}

func TestValidateTunables(t *testing.T) {
	p := &Plan{Drop: 0.5, Delay: 0.1} // delay probability, no duration
	if err := p.Validate(); err == nil {
		t.Error("delay probability without duration validated")
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Errorf("nil plan invalid: %v", err)
	}
}
