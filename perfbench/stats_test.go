package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   samples
		want float64
	}{
		{nil, 0},
		{samples{3}, 3},
		{samples{5, 1, 3}, 3},
		{samples{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := c.in.median(); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestTailNeedsTenBeyond pins the tail rule: a percentile is reported
// only when at least ten samples lie beyond it, so fewer than forty
// samples report the median alone.
func TestTailNeedsTenBeyond(t *testing.T) {
	mk := func(n int) samples {
		s := make(samples, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n     int
		level float64
		ok    bool
	}{
		{0, 0, false},
		{10, 0, false},
		{39, 0, false},
		{40, 0.75, true},
		{99, 0.75, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
	}
	for _, c := range cases {
		level, value, ok := mk(c.n).tail()
		if ok != c.ok || level != c.level {
			t.Errorf("n=%d: tail level %v ok %v, want %v %v", c.n, level, ok, c.level, c.ok)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, v := range mk(c.n) {
			if v > value {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%v = %v has only %d samples beyond it", c.n, level*100, value, beyond)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := samples{10, 20, 30, 40, 50}
	if got := s.quantile(0.5); got != 30 {
		t.Errorf("q50 = %v", got)
	}
	if got := s.quantile(0.9); math.Abs(got-46) > 1e-9 {
		t.Errorf("q90 = %v, want 46", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}

// TestLedgerAccounting: the known fault counts as failed but keeps the
// run correct; any other failure, or an end-of-run mismatch, does not.
func TestLedgerAccounting(t *testing.T) {
	var l ledger
	l.ok()
	l.ok()
	l.knownFail()
	if l.attempted != 3 || l.failed != 1 || !l.correct() {
		t.Fatalf("after two successes and a known failure: %+v, correct %v", l, l.correct())
	}
	l.fail("boom %d", 1)
	if l.attempted != 4 || l.failed != 2 || l.correct() {
		t.Fatalf("after an unexpected failure: %+v, correct %v", l, l.correct())
	}

	var m ledger
	m.ok()
	m.mismatch("final snapshot differs")
	if m.attempted != 1 || m.failed != 0 || m.correct() {
		t.Fatalf("a mismatch must leave the counts alone and make the run incorrect: %+v", m)
	}
}
