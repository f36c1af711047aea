package ncdsm

import (
	"testing"

	"repro/internal/params"
)

// FuzzParseMesh feeds arbitrary -mesh specs to the parser: an accepted
// mesh must be addressable, with every node identifier fitting the
// physical-address node prefix.
func FuzzParseMesh(f *testing.F) {
	for _, seed := range []string{"", "4x4", "16x16", "128x128", "4294967296x4294967296", "2x-3", "x", "08x+9"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		w, h, err := ParseMesh(spec)
		if err != nil || spec == "" {
			return
		}
		if w < 2 || h < 2 || w > 1<<params.NodePrefixBits || h > 1<<params.NodePrefixBits || w*h >= 1<<params.NodePrefixBits {
			t.Fatalf("ParseMesh(%q) accepted a %dx%d mesh", spec, w, h)
		}
	})
}
