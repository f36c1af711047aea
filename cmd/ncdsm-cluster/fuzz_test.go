package main

import "testing"

// FuzzParseExplore feeds arbitrary -explore specs to the parser: every
// spec it accepts must carry a budget the explorer can run (a depth of
// at least 0 and at least one sample), and its canonical String — the
// banner the CLI prints — must re-parse to the same spec and render
// back to itself.
func FuzzParseExplore(f *testing.F) {
	for _, seed := range []string{
		"",
		"exhaustive:6",
		"sample:100:42",
		"exhaustive:6,sample:500:1",
		" exhaustive:4 , sample:9:3",
		"sample:1:-9223372036854775808",
		"exhaustive:-1",
		"sample:0",
		"sample:1:2:3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := parseExplore(spec, 1)
		if err != nil {
			return
		}
		if s.MaxDepth < 0 || s.Samples < 1 || s.Parallel != 1 {
			t.Fatalf("parseExplore(%q) accepted an unusable spec %+v", spec, s)
		}
		canon := s.String()
		again, err := parseExplore(canon, 1)
		if err != nil {
			t.Fatalf("re-parsing %q (from %q): %v", canon, spec, err)
		}
		if again != s {
			t.Fatalf("round trip %q -> %q changed the spec: %+v vs %+v", spec, canon, again, s)
		}
		if again.String() != canon {
			t.Fatalf("String is not canonical: %q renders %q", canon, again.String())
		}
	})
}
