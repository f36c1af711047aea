package main

import (
	"bytes"
	"strings"
	"testing"
)

// doc builds a baseline document from name → result pairs.
func doc(entries map[string]Result) Baseline {
	return Baseline{Benchmarks: entries}
}

func TestCompareGate(t *testing.T) {
	calib := Result{NsPerOp: 100}
	for _, tc := range []struct {
		name      string
		base, cur map[string]Result
		tolerance float64
		wantCode  int
	}{
		{
			name:      "within tolerance",
			base:      map[string]Result{"x": {NsPerOp: 1000}},
			cur:       map[string]Result{"x": {NsPerOp: 1199}},
			tolerance: 0.2,
		},
		{
			name:      "ns/op regression",
			base:      map[string]Result{"x": {NsPerOp: 1000}},
			cur:       map[string]Result{"x": {NsPerOp: 1201}},
			tolerance: 0.2,
			wantCode:  1,
		},
		{
			// A host twice as slow doubles the allowance: 1000 × 2 × 1.2.
			name:      "calibration rescales a slower host",
			base:      map[string]Result{"calibration": calib, "x": {NsPerOp: 1000}},
			cur:       map[string]Result{"calibration": {NsPerOp: 200}, "x": {NsPerOp: 2399}},
			tolerance: 0.2,
		},
		{
			// A host twice as fast halves it: 1000 × 0.5 × 1.2 = 600.
			name:      "calibration rescales a faster host",
			base:      map[string]Result{"calibration": calib, "x": {NsPerOp: 1000}},
			cur:       map[string]Result{"calibration": {NsPerOp: 50}, "x": {NsPerOp: 700}},
			tolerance: 0.2,
			wantCode:  1,
		},
		{
			name:      "calibration missing from the current run leaves the scale at 1",
			base:      map[string]Result{"calibration": calib, "x": {NsPerOp: 1000}},
			cur:       map[string]Result{"x": {NsPerOp: 1199}},
			tolerance: 0.2,
		},
		{
			name:      "per-entry tolerance widens the global one",
			base:      map[string]Result{"x": {NsPerOp: 1000, Tolerance: 0.5}},
			cur:       map[string]Result{"x": {NsPerOp: 1499}},
			tolerance: 0.2,
		},
		{
			name:      "per-entry tolerance still bounds the widened band",
			base:      map[string]Result{"x": {NsPerOp: 1000, Tolerance: 0.5}},
			cur:       map[string]Result{"x": {NsPerOp: 1501}},
			tolerance: 0.2,
			wantCode:  1,
		},
		{
			// A per-entry tolerance below the global one never tightens it.
			name:      "per-entry tolerance never narrows the global one",
			base:      map[string]Result{"x": {NsPerOp: 1000, Tolerance: 0.05}},
			cur:       map[string]Result{"x": {NsPerOp: 1199}},
			tolerance: 0.2,
		},
		{
			name:      "zero-alloc entry stays zero",
			base:      map[string]Result{"x": {NsPerOp: 1000}},
			cur:       map[string]Result{"x": {NsPerOp: 1000, AllocsPerOp: 1}},
			tolerance: 0.2,
			wantCode:  1,
		},
		{
			name:      "zero-alloc entry is not rescued by a wide tolerance",
			base:      map[string]Result{"x": {NsPerOp: 1000, Tolerance: 5}},
			cur:       map[string]Result{"x": {NsPerOp: 10, AllocsPerOp: 1}},
			tolerance: 0.2,
			wantCode:  1,
		},
		{
			// 1000 × 1.01 + 64 = 1074 allocs/op allowed.
			name:      "nonzero-alloc entry gets 1% + 64 slack",
			base:      map[string]Result{"x": {NsPerOp: 1000, AllocsPerOp: 1000}},
			cur:       map[string]Result{"x": {NsPerOp: 1000, AllocsPerOp: 1074}},
			tolerance: 0.2,
		},
		{
			name:      "nonzero-alloc entry beyond the slack",
			base:      map[string]Result{"x": {NsPerOp: 1000, AllocsPerOp: 1000}},
			cur:       map[string]Result{"x": {NsPerOp: 1000, AllocsPerOp: 1075}},
			tolerance: 0.2,
			wantCode:  1,
		},
		{
			name:      "baseline entry missing from the current run",
			base:      map[string]Result{"x": {NsPerOp: 1000}, "y": {NsPerOp: 1000}},
			cur:       map[string]Result{"x": {NsPerOp: 1000}},
			tolerance: 0.2,
			wantCode:  1,
		},
		{
			name:      "current-only entry is not gated",
			base:      map[string]Result{"x": {NsPerOp: 1000}},
			cur:       map[string]Result{"x": {NsPerOp: 1000}, "new": {NsPerOp: 1e9, AllocsPerOp: 1e6}},
			tolerance: 0.2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if got := compare(&out, doc(tc.base), doc(tc.cur), tc.tolerance); got != tc.wantCode {
				t.Errorf("compare = %d, want %d; report:\n%s", got, tc.wantCode, out.String())
			}
		})
	}
}

// TestCompareReportOrder pins the report to benchmark name order, so
// two checks of the same measurements print the same lines.
func TestCompareReportOrder(t *testing.T) {
	entries := map[string]Result{}
	names := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}
	for _, n := range names {
		entries[n] = Result{NsPerOp: 100}
	}
	for run := 0; run < 5; run++ {
		var out bytes.Buffer
		if code := compare(&out, doc(entries), doc(entries), 0.2); code != 0 {
			t.Fatalf("identical runs failed the gate:\n%s", out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != len(names) {
			t.Fatalf("report has %d lines, want %d:\n%s", len(lines), len(names), out.String())
		}
		for i, n := range names {
			if !strings.HasPrefix(lines[i], "ok   "+n+":") {
				t.Fatalf("line %d = %q, want benchmark %s", i, lines[i], n)
			}
		}
	}
}
