package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// samples collects one kind of per-operation timing (in milliseconds
// or microseconds; the caller picks the unit when it names the metric).
type samples []float64

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no samples.
func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// quantile returns the q-quantile (0 <= q <= 1) by linear
// interpolation between closest ranks.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

// tailLevels are the percentiles a tail may be reported at, highest
// first.
var tailLevels = []float64{0.99, 0.9, 0.75}

// tail picks the highest percentile that has at least ten samples
// beyond it. With fewer than forty samples no percentile qualifies (a
// p75 over 39 samples would have fewer than ten above it), and ok is
// false: only the median is worth reporting.
func (s samples) tail() (level, value float64, ok bool) {
	for _, p := range tailLevels {
		if float64(len(s))*(1-p) >= 10-1e-9 {
			return p, s.quantile(p), true
		}
	}
	return 0, 0, false
}

// summary renders a sample set as "median (pNN tail, n=N)".
func (s samples) summary(unit string) string {
	if len(s) == 0 {
		return "n/a"
	}
	out := fmt.Sprintf("%.4g %s median", s.median(), unit)
	if p, v, ok := s.tail(); ok {
		out += fmt.Sprintf(", p%g %.4g", p*100, v)
	}
	return out + fmt.Sprintf(", n=%d", len(s))
}

// latencies holds per-operation timings in milliseconds, by kind of
// operation and by the input it ran on (a source, or a source and a
// query).
type latencies map[string]map[string]samples

func (l latencies) add(kind, key string, v float64) {
	if l[kind] == nil {
		l[kind] = map[string]samples{}
	}
	l[kind][key] = append(l[kind][key], v)
}

// pooled returns every sample of one kind.
func (l latencies) pooled(kind string) samples {
	var out samples
	for _, s := range l[kind] {
		out = append(out, s...)
	}
	return out
}

// keyed returns the geometric mean, over the inputs an operation kind
// ran on, of each input's median. Inputs differ in cost by orders of
// magnitude (a busy camera against a quiet one), so the median of all
// samples pooled would land between clusters and jump with the mix;
// the mean of per-input medians moves only when the operations do.
func (l latencies) keyed(kind string) float64 {
	var meds []float64
	for _, s := range l[kind] {
		meds = append(meds, s.median())
	}
	return geomean(meds)
}

// geomean returns the geometric mean of positive values (0 when any
// is not positive or there are none).
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// ledger is the run's failure accounting. Every operation the load
// loop sends is attempted once; an operation fails when the program
// answers with an error or a wrong answer. Failures of the one known
// fault kept in the archive workload are expected: they count as
// failed but leave the run correct. Any other failure marks the run
// incorrect.
type ledger struct {
	attempted int
	failed    int
	known     int
	problems  []string
}

// ok records one operation that succeeded.
func (l *ledger) ok() { l.attempted++ }

// fail records one operation that failed unexpectedly.
func (l *ledger) fail(format string, args ...any) {
	l.attempted++
	l.failed++
	l.note(format, args...)
}

// knownFail records one operation that failed through the known fault.
func (l *ledger) knownFail() {
	l.attempted++
	l.failed++
	l.known++
}

// mismatch records a check made outside any counted operation (an
// end-of-run comparison) that found a wrong answer.
func (l *ledger) mismatch(format string, args ...any) { l.note(format, args...) }

func (l *ledger) note(format string, args ...any) {
	if len(l.problems) < 20 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// correct reports whether every failure was the known fault and no
// end-of-run check found a wrong answer.
func (l *ledger) correct() bool { return len(l.problems) == 0 && l.failed == l.known }

func (l *ledger) String() string {
	s := fmt.Sprintf("attempted %d, failed %d (known fault %d)", l.attempted, l.failed, l.known)
	if len(l.problems) > 0 {
		s += "\n  problems:\n    " + strings.Join(l.problems, "\n    ")
	}
	return s
}
