package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// BucketInf marks the implicit +Inf histogram bucket.
const BucketInf = int64(math.MaxInt64)

// Bucket is one histogram bucket: the count of samples <= Le picoseconds
// (not cumulative; Prometheus rendering accumulates). Le == BucketInf is
// the overflow bucket.
type Bucket struct {
	Le    int64  `json:"le"`
	Count uint64 `json:"count"`
}

// Sample is one labeled value within a family. Counters and gauges use
// Value; histograms use Buckets/Sum/Count.
type Sample struct {
	Labels  Labels   `json:"labels,omitempty"`
	Value   float64  `json:"value,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
	Sum     int64    `json:"sum,omitempty"`
	Count   uint64   `json:"count,omitempty"`
}

// Family is all samples sharing one metric name.
type Family struct {
	Name    string   `json:"name"`
	Help    string   `json:"help,omitempty"`
	Kind    Kind     `json:"kind"`
	Samples []Sample `json:"samples"`
}

// Snapshot is an immutable, fully ordered capture of a Registry:
// families sorted by name, samples by label signature. Equal simulations
// produce byte-identical renderings.
type Snapshot struct {
	Families []Family `json:"families"`
}

// Family returns the named family, or nil when absent.
func (s Snapshot) Family(name string) *Family {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Value returns the first sample of family name whose labels include
// every pair of ls, with ok reporting whether one was found. Histogram
// families return the sample Count.
func (s Snapshot) Value(name string, ls Labels) (float64, bool) {
	f := s.Family(name)
	if f == nil {
		return 0, false
	}
	for _, sm := range f.Samples {
		match := true
		for _, want := range ls {
			if sm.Labels.Get(want.Key) != want.Value {
				match = false
				break
			}
		}
		if match {
			if f.Kind == KindHistogram {
				return float64(sm.Count), true
			}
			return sm.Value, true
		}
	}
	return 0, false
}

// Total sums every sample of a counter or gauge family (histograms sum
// their Counts).
func (s Snapshot) Total(name string) float64 {
	f := s.Family(name)
	if f == nil {
		return 0
	}
	var t float64
	for _, sm := range f.Samples {
		if f.Kind == KindHistogram {
			t += float64(sm.Count)
		} else {
			t += sm.Value
		}
	}
	return t
}

// Merge combines two snapshots: counters, gauges, and histogram buckets
// add; families and samples present in only one side pass through.
// Merging is a left fold — the experiment harness folds run snapshots in
// submission order, which with these commutative-in-theory but
// float-sensitive sums is what makes merged output byte-identical at any
// worker count.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	famIdx := make(map[string]int, len(s.Families))
	out := Snapshot{Families: make([]Family, len(s.Families))}
	for i, f := range s.Families {
		cp := f
		cp.Samples = append([]Sample(nil), f.Samples...)
		for j := range cp.Samples {
			cp.Samples[j].Buckets = append([]Bucket(nil), f.Samples[j].Buckets...)
		}
		out.Families[i] = cp
		famIdx[f.Name] = i
	}
	for _, f := range o.Families {
		i, ok := famIdx[f.Name]
		if !ok {
			cp := f
			cp.Samples = append([]Sample(nil), f.Samples...)
			out.Families = append(out.Families, cp)
			continue
		}
		dst := &out.Families[i]
		smpIdx := make(map[string]int, len(dst.Samples))
		for j, sm := range dst.Samples {
			smpIdx[sm.Labels.signature()] = j
		}
		for _, sm := range f.Samples {
			j, ok := smpIdx[sm.Labels.signature()]
			if !ok {
				dst.Samples = append(dst.Samples, sm)
				continue
			}
			d := &dst.Samples[j]
			d.Value += sm.Value
			d.Sum += sm.Sum
			d.Count += sm.Count
			if len(d.Buckets) == len(sm.Buckets) {
				for k := range d.Buckets {
					d.Buckets[k].Count += sm.Buckets[k].Count
				}
			}
		}
		sort.Slice(dst.Samples, func(a, b int) bool {
			return dst.Samples[a].Labels.signature() < dst.Samples[b].Labels.signature()
		})
	}
	sort.Slice(out.Families, func(a, b int) bool { return out.Families[a].Name < out.Families[b].Name })
	return out
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Snapshot contains only plain values; this cannot fail.
		panic(err)
	}
	return string(b) + "\n"
}

// Prometheus renders the snapshot in the Prometheus text exposition
// format. Histogram le edges and sums are printed in seconds (values are
// picoseconds internally), matching Prometheus latency conventions.
func (s Snapshot) Prometheus() string {
	var b strings.Builder
	for _, f := range s.Families {
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, f.Help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, sm := range f.Samples {
			if f.Kind == KindHistogram {
				var cum uint64
				for _, bk := range sm.Buckets {
					cum += bk.Count
					le := "+Inf"
					if bk.Le != BucketInf {
						le = formatFloat(float64(bk.Le) / 1e12)
					}
					fmt.Fprintf(&b, "%s_bucket{%s} %d\n", f.Name, promLabels(sm.Labels, le), cum)
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.Name, promLabelBlock(sm.Labels), formatFloat(float64(sm.Sum)/1e12))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.Name, promLabelBlock(sm.Labels), sm.Count)
				continue
			}
			fmt.Fprintf(&b, "%s%s %s\n", f.Name, promLabelBlock(sm.Labels), formatFloat(sm.Value))
		}
	}
	return b.String()
}

// formatFloat prints integral values without an exponent or trailing
// zeros so counters read naturally ("42", not "4.2e+01").
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabelBlock renders {k="v",...} or "" when unlabeled.
func promLabelBlock(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	return "{" + joinLabels(ls) + "}"
}

// promLabels renders the label pairs plus the le bucket label.
func promLabels(ls Labels, le string) string {
	if len(ls) == 0 {
		return `le="` + le + `"`
	}
	return joinLabels(ls) + `,le="` + le + `"`
}

func joinLabels(ls Labels) string {
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.Key + `="` + escapeLabel(l.Value) + `"`
	}
	return strings.Join(parts, ",")
}

// labelEscaper escapes the three characters the exposition format
// reserves in a label value. A Replacer is safe for concurrent use, so
// one serves every render.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel returns v escaped for a Prometheus label value, and v
// itself when it holds nothing to escape, as every numeric label does.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return labelEscaper.Replace(v)
}

// Merged accumulates run snapshots in the order Add is called. The
// experiment harness calls Add from the generator goroutine in sweep
// submission order, never from workers, preserving determinism.
type Merged struct {
	snap Snapshot
	any  bool
}

// Add folds one run's snapshot into the accumulator.
func (m *Merged) Add(s Snapshot) {
	if !m.any {
		m.snap = s
		m.any = true
		return
	}
	m.snap = m.snap.Merge(s)
}

// Snapshot returns the merged result (zero Snapshot before any Add).
func (m *Merged) Snapshot() Snapshot { return m.snap }
