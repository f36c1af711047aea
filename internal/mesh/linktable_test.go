package mesh

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/params"
	"repro/internal/sim"
)

// linkTableShapes covers both degenerate lines (where +1 and +W are the
// same identifier offset), the prototype, and a paper-scale mesh.
var linkTableShapes = [][2]int{{1, 5}, {5, 1}, {4, 4}, {16, 16}}

// TestLinkTableDistinctLinks checks the dense link table: every directed
// neighbor pair resolves to its own link, the one named after that
// pair, and a frame crossing the pair is counted on that pair's metric
// series and no other.
func TestLinkTableDistinctLinks(t *testing.T) {
	for _, wh := range linkTableShapes {
		t.Run(fmt.Sprintf("%dx%d", wh[0], wh[1]), func(t *testing.T) {
			topo, err := NewTopology(wh[0], wh[1])
			if err != nil {
				t.Fatal(err)
			}
			eng := sim.New()
			f := NewFabric(eng, topo, params.Default(), nil)
			want := 2 * ((topo.W-1)*topo.H + topo.W*(topo.H-1))
			if got := f.Links(); got != want {
				t.Fatalf("Links() = %d, want %d", got, want)
			}
			seen := make(map[*link]bool)
			for id := addr.NodeID(1); int(id) <= topo.Nodes(); id++ {
				for _, nb := range topo.Neighbors(id) {
					l := f.link(id, nb)
					if l == nil {
						t.Fatalf("no link %d->%d", id, nb)
					}
					if seen[l] {
						t.Fatalf("link %d->%d shares its slot with another pair", id, nb)
					}
					seen[l] = true
					if name, want := l.res.Name(), fmt.Sprintf("link %d->%d", id, nb); name != want {
						t.Fatalf("link %d->%d resolves to %q", id, nb, name)
					}
					if hops := f.DeliverOutcome(0, id, nb, 64).Hops; hops != 1 {
						t.Fatalf("%d->%d took %d hops", id, nb, hops)
					}
				}
			}
			if len(seen) != want {
				t.Fatalf("%d distinct links, want %d", len(seen), want)
			}
			fam := eng.Metrics().Snapshot().Family(metrics.FamMeshLinkFrames)
			if fam == nil || len(fam.Samples) != want {
				t.Fatalf("link frame family missing or not %d samples", want)
			}
			for _, s := range fam.Samples {
				if s.Value != 1 {
					t.Fatalf("link %s->%s carried %v frames, want 1", s.Labels.Get("from"), s.Labels.Get("to"), s.Value)
				}
			}
		})
	}
}

// TestLinkUtilizationRejects checks that pairs with no mesh link —
// self, non-neighbors (including row wrap-around, whose identifiers
// differ by one), and nodes outside the mesh — report an error instead
// of indexing a wrong slot or panicking.
func TestLinkUtilizationRejects(t *testing.T) {
	for _, wh := range linkTableShapes {
		topo, err := NewTopology(wh[0], wh[1])
		if err != nil {
			t.Fatal(err)
		}
		f := NewFabric(sim.New(), topo, params.Default(), nil)
		n := addr.NodeID(topo.Nodes())
		bad := [][2]addr.NodeID{{1, 1}, {n, n}, {0, 1}, {1, 0}, {n, n + 1}, {n + 1, n}, {addr.MaxNode, 1}}
		if n >= 3 {
			bad = append(bad, [2]addr.NodeID{1, 3}, [2]addr.NodeID{3, 1})
		}
		if topo.W > 1 && topo.H > 1 {
			// The last node of row 0 and the first of row 1.
			w := addr.NodeID(topo.W)
			bad = append(bad, [2]addr.NodeID{w, w + 1}, [2]addr.NodeID{w + 1, w}, [2]addr.NodeID{1, w + 2})
		}
		for _, p := range bad {
			if _, err := f.LinkUtilization(p[0], p[1], 100); err == nil {
				t.Errorf("%dx%d: utilization of %d->%d computed, want an error", topo.W, topo.H, p[0], p[1])
			}
		}
	}
}

// TestLinkFamiliesUnchanged pins the per-link metric families: exactly
// the two mesh_link families, one series per directed neighbor pair,
// each labeled with exactly from, to and class=mesh.
func TestLinkFamiliesUnchanged(t *testing.T) {
	topo, err := NewTopology(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	NewFabric(eng, topo, params.Default(), nil)
	var want []string
	for id := addr.NodeID(1); int(id) <= topo.Nodes(); id++ {
		for _, nb := range topo.Neighbors(id) {
			want = append(want, fmt.Sprintf("class=mesh,from=%d,to=%d", id, nb))
		}
	}
	sort.Strings(want)
	snap := eng.Metrics().Snapshot()
	var fams []string
	for _, fam := range snap.Families {
		if strings.Contains(fam.Name, "mesh_link") {
			fams = append(fams, fam.Name)
		}
	}
	if wantFams := []string{"ncdsm_mesh_link_bytes_total", "ncdsm_mesh_link_frames_total"}; !reflect.DeepEqual(fams, wantFams) {
		t.Fatalf("mesh_link families = %v, want %v", fams, wantFams)
	}
	for _, name := range fams {
		var got []string
		for _, s := range snap.Family(name).Samples {
			var kv []string
			for _, l := range s.Labels {
				kv = append(kv, l.Key+"="+l.Value)
			}
			sort.Strings(kv)
			got = append(got, strings.Join(kv, ","))
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s label sets = %v, want %v", name, got, want)
		}
	}
}
