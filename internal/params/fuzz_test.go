package params

import (
	"reflect"
	"testing"
)

// FuzzParseLinkLat feeds arbitrary -linklat specs to the parser: every
// spec it accepts must pass Validate, render to a canonical String (a
// fixed point of parse-then-render), and re-parse to an equal spec.
func FuzzParseLinkLat(f *testing.F) {
	for _, seed := range []string{
		"",
		"x=100ns",
		"x=100ns,y=140ns,edge=1.0-2.0:250ns,edge=0.1-0.2:80ns",
		"edge=0.0--1.0:10ns",
		"edge=0.0-1.0:250ns,edge=1.0-0.0:50ns",
		"x=2562047h",
		" y = 1us ,,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseLinkLat(spec)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseLinkLat(%q) accepted a spec Validate rejects: %v", spec, err)
		}
		canon := s.String()
		again, err := ParseLinkLat(canon)
		if err != nil {
			t.Fatalf("re-parsing %q (from %q): %v", canon, spec, err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("round trip %q -> %q changed the spec: %+v vs %+v", spec, canon, again, s)
		}
		if again.String() != canon {
			t.Fatalf("String is not canonical: %q renders %q", canon, again.String())
		}
	})
}

// FuzzParseBulk feeds arbitrary -bulk specs to the parser: every spec it
// accepts must pass Validate, and its canonical String must re-parse to
// the same spec and render back to itself.
func FuzzParseBulk(f *testing.F) {
	for _, seed := range []string{
		"",
		"on",
		"default",
		"frame=4",
		"frame=16,maxframes=256",
		" maxframes = 64 ,,frame=0",
		"frame=257",
		"frame=-1",
		"frame=+08,maxframes=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseBulk(spec)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseBulk(%q) accepted a spec Validate rejects: %v", spec, err)
		}
		canon := s.String()
		again, err := ParseBulk(canon)
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
