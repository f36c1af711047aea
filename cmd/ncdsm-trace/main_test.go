package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRecordReplayInfoRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.trace")

	if err := doRecord("random", out, 5000, 1); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(out)
	if err != nil || st.Size() == 0 {
		t.Fatalf("trace not written: %v", err)
	}
	for _, cfg := range []string{"local", "remote", "remote-swap", "disk-swap", "all"} {
		if err := doReplay(out, cfg, 1, 0); err != nil {
			t.Errorf("replay %s: %v", cfg, err)
		}
	}
	if err := doInfo(out); err != nil {
		t.Errorf("info: %v", err)
	}
}

func TestRecordKernels(t *testing.T) {
	dir := t.TempDir()
	for _, k := range []string{"blackscholes", "streamcluster"} {
		out := filepath.Join(dir, k+".trace")
		if err := doRecord(k, out, 0, 1); err != nil {
			t.Fatalf("record %s: %v", k, err)
		}
		if err := doReplay(out, "local", 1, 0); err != nil {
			t.Fatalf("replay %s: %v", k, err)
		}
	}
}

func TestErrors(t *testing.T) {
	dir := t.TempDir()
	if err := doRecord("nope", filepath.Join(dir, "x"), 10, 1); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := doReplay(filepath.Join(dir, "missing.trace"), "local", 1, 0); err == nil {
		t.Error("missing trace replayed")
	}
	out := filepath.Join(dir, "ok.trace")
	if err := doRecord("random", out, 10, 1); err != nil {
		t.Fatal(err)
	}
	if err := doReplay(out, "warp-drive", 1, 0); err == nil {
		t.Error("unknown config accepted")
	}
	// Hop distances outside the mesh must not price negative or
	// beyond-diameter round trips.
	for _, hops := range []int{-1, 99} {
		if err := doReplay(out, "remote", hops, 0); err == nil {
			t.Errorf("replay at %d hops accepted", hops)
		}
	}
	if err := doInfo(filepath.Join(dir, "missing.trace")); err == nil {
		t.Error("info on missing trace succeeded")
	}
	// Empty (header-only) trace.
	empty := filepath.Join(dir, "empty.trace")
	if err := doRecord("random", empty, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := doInfo(empty); err == nil {
		t.Error("info on empty trace succeeded")
	}
	if err := doReplay(empty, "local", 1, 0); err == nil {
		t.Error("replay of empty trace succeeded")
	}
}
