package faults

import "testing"

// FuzzParse checks that String is a canonical rendering of every plan
// Parse accepts: the rendering re-parses, and re-renders identically.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"seed=7,drop=0.01",
		"seed=2,drop=0.01,corrupt=0.002,delayp=0.02,delay=300ns",
		"seed=4,drop=0.1,down=2-6@10us:20us,down=6-7@0:50us,storm=6@1us:2us,stall=7@5us:9us",
		"storm=6@0:5us,storm=6@0:3us,stall=2@1.5ns:2ms",
		"drop=NaN",
		"delay=1e300s",
		" corrupt = 0.5 ,,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted a plan Validate rejects: %v", spec, err)
		}
		canon := p.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("re-parsing %q (from %q): %v", canon, spec, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("String is not canonical: %q (from %q) renders %q", canon, spec, got)
		}
	})
}
