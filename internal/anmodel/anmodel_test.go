package anmodel

import (
	"testing"
	"testing/quick"

	"repro/internal/memmodel"
	"repro/internal/params"
	"repro/internal/swap"
)

func TestValidate(t *testing.T) {
	in := FromParams(params.Default(), 1)
	in.ATotal, in.APage = 100, 10
	if err := in.Validate(); err != nil {
		t.Errorf("valid inputs rejected: %v", err)
	}
	bad := in
	bad.APage = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("APage < 1 accepted")
	}
	bad = in
	bad.LLocal = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero latency accepted")
	}
}

func TestEquationValues(t *testing.T) {
	in := Inputs{ATotal: 1000, APage: 10, LLocal: 80, LSwap: 14000, LRemote: 1100}
	ts, err := in.RemoteSwapTime()
	if err != nil {
		t.Fatal(err)
	}
	if want := params.Duration(1000*80 + 100*14000); ts != want {
		t.Errorf("Eq1 = %d, want %d", ts, want)
	}
	tm, err := in.RemoteMemoryTime()
	if err != nil {
		t.Fatal(err)
	}
	if want := params.Duration(1000 * 1100); tm != want {
		t.Errorf("Eq2 = %d, want %d", tm, want)
	}
}

func TestCrossover(t *testing.T) {
	in := Inputs{ATotal: 1, APage: 1, LLocal: 80, LSwap: 14000, LRemote: 1080}
	x, err := in.CrossoverAPage()
	if err != nil {
		t.Fatal(err)
	}
	if x != 14.0 {
		t.Errorf("crossover = %v, want 14", x)
	}
	// At exactly the crossover locality, the two systems tie.
	in.ATotal, in.APage = 14000, x
	ts, _ := in.RemoteSwapTime()
	tm, _ := in.RemoteMemoryTime()
	if ts != tm {
		t.Errorf("at crossover: swap %d vs remote %d", ts, tm)
	}
	// Below it remote memory wins; above it swap wins.
	in.APage = x / 2
	ts, _ = in.RemoteSwapTime()
	if ts <= tm {
		t.Error("low locality should favor remote memory")
	}
	in.APage = x * 2
	ts, _ = in.RemoteSwapTime()
	if ts >= tm {
		t.Error("high locality should favor swap")
	}
	// Degenerate: remote not slower than local.
	deg := Inputs{ATotal: 1, APage: 1, LLocal: 100, LSwap: 1000, LRemote: 100}
	if _, err := deg.CrossoverAPage(); err == nil {
		t.Error("degenerate crossover accepted")
	}
}

// TestEq1MatchesMechanisticModel: for a uniform trace with exact
// locality A_page (each page touched A_page times consecutively, no
// reuse), Equation (1) must equal the swap model's measured time.
func TestEq1MatchesMechanisticModel(t *testing.T) {
	p := params.Default()
	const pages, perPage = 200, 16
	s, err := memmodel.NewSwap(p, swap.RemoteDevice{P: p, Hops: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	var ops []memmodel.AccessOp
	for pg := 0; pg < pages; pg++ {
		for i := 0; i < perPage; i++ {
			ops = append(ops, memmodel.AccessOp{Addr: uint64(pg)*params.PageSize + uint64(i*64)})
		}
	}
	measured := s.AccessBatch(ops)
	in := FromParams(p, 1)
	in.ATotal = pages * perPage
	in.APage = perPage
	predicted, err := in.RemoteSwapTime()
	if err != nil {
		t.Fatal(err)
	}
	if measured != predicted {
		t.Errorf("measured %d, Eq1 predicts %d", measured, predicted)
	}
}

// TestEq2MatchesMechanisticModel: the remote accessor is Equation (2).
func TestEq2MatchesMechanisticModel(t *testing.T) {
	p := params.Default()
	r := memmodel.Remote{P: p, Hops: 2}
	var ops []memmodel.AccessOp
	const n = 5000
	for i := 0; i < n; i++ {
		ops = append(ops, memmodel.AccessOp{Addr: uint64(i * 977)})
	}
	measured := r.AccessBatch(ops)
	in := FromParams(p, 2)
	in.ATotal, in.APage = n, 1
	predicted, err := in.RemoteMemoryTime()
	if err != nil {
		t.Fatal(err)
	}
	if measured != predicted {
		t.Errorf("measured %d, Eq2 predicts %d", measured, predicted)
	}
}

// TestMonotonicityProperties: Eq1 decreases in locality, Eq2 is linear
// in access count.
func TestMonotonicityProperties(t *testing.T) {
	base := FromParams(params.Default(), 1)
	f := func(aTotalSel uint16, apSel uint8) bool {
		in := base
		in.ATotal = uint64(aTotalSel) + 1
		in.APage = float64(apSel%100) + 1
		t1, err := in.RemoteSwapTime()
		if err != nil {
			return false
		}
		in2 := in
		in2.APage = in.APage * 2
		t2, err := in2.RemoteSwapTime()
		if err != nil {
			return false
		}
		if t2 > t1 {
			return false // better locality can never hurt swap
		}
		m1, _ := in.RemoteMemoryTime()
		in3 := in
		in3.ATotal *= 3
		m3, _ := in3.RemoteMemoryTime()
		return m3 == 3*m1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
