package main

import (
	"os"
	"path/filepath"

	"vqpy"
	"vqpy/internal/exec"
	"vqpy/internal/serve"
)

// standingSpec describes a workload of standing queries on live
// streams: the live and ingest workloads differ only in what rides the
// streams and whether the server archives.
type standingSpec struct {
	sources []string
	queries []string // attached on every source at frame zero
	clipSec float64
	archive bool // run with StoreDir and IndexDir
}

var liveSpec = standingSpec{
	sources: serve.SourceNames(),
	queries: serve.QueryNames(),
	clipSec: 300,
}

var ingestSpec = standingSpec{
	sources: serve.SourceNames(),
	queries: []string{"redcar", "people"},
	clipSec: 300,
	archive: true,
}

// roundTicks is one round of the standing workloads: 30 ticks are a
// whole number of video seconds of every source (10, 15 and 30 fps),
// so every lane is polled the same number of times each round.
const roundTicks = 30

// standingRun is one set-up server with its standing lanes.
type standingRun struct {
	dir      string
	h        *harness
	lanes    []*lane
	churn    int         // id of the lane the next round detaches
	churnKey string      // its source and query
	pairs    [][2]string // (source, query) attached in turn by the churn
	setupS   float64
	closed   bool
}

func (r *standingRun) close() {
	if !r.closed {
		r.h.srv.Close()
		r.closed = true
	}
}

// setupStanding generates the clips, opens the server (and store and
// index when archiving) and attaches every standing query plus the
// first churn lane through POST /queries.
func setupStanding(spec standingSpec, seed uint64, dir string, tr *tracer, led *ledger) (*standingRun, error) {
	c0 := threadCPU()
	cfg := serve.Config{Seed: seed, Seconds: spec.clipSec}
	if spec.archive {
		cfg.StoreDir = filepath.Join(dir, "store")
		cfg.IndexDir = filepath.Join(dir, "index")
	}
	srv, err := serve.NewServer(cfg, spec.sources)
	if err != nil {
		return nil, err
	}
	r := &standingRun{dir: dir, h: newHarness(srv, tr, led)}
	for _, src := range spec.sources {
		for _, q := range spec.queries {
			id, _, err := r.h.attach(src, q, false)
			if err != nil {
				r.close()
				return nil, err
			}
			r.lanes = append(r.lanes, newLane(id, src, q))
		}
	}
	// The churn re-attaches the workload's own standing queries, so a
	// churn lane always joins a scan group already running and the
	// engine's per-frame load is the same in every round.
	for _, q := range spec.queries {
		for _, src := range spec.sources {
			r.pairs = append(r.pairs, [2]string{src, q})
		}
	}
	r.churnKey = r.pairs[0][0] + "/" + r.pairs[0][1]
	if r.churn, _, err = r.h.attach(r.pairs[0][0], r.pairs[0][1], false); err != nil {
		r.close()
		return nil, err
	}
	r.pairs = append(r.pairs[1:], r.pairs[0])
	r.setupS = (threadCPU() - c0).Seconds()
	return r, nil
}

// fed is the number of frames source has been fed.
func (r *standingRun) fed(source string) int { return r.h.fed[source] }

// churnEvery is how many ticks apart the churn runs: six times a
// round, so a run collects several first verdicts per (source, query)
// pair and the per-pair medians are not single samples.
const churnEvery = 5

// round runs one round of ticks. Every churnEvery ticks the churn
// detaches the previous churn lane, attaches the next catalogue query
// and waits for its first verdict (that wait's step is the tick);
// every standing lane is polled with ?since= once per video second of
// its source.
func (r *standingRun) round(n int) {
	h := r.h
	for t := 1; t <= roundTicks; t++ {
		if t%churnEvery == 1 {
			r.churnOnce(n*(roundTicks/churnEvery) + t/churnEvery)
		} else if _, err := h.step(); err != nil {
			h.led.fail("step: %v", err)
		} else {
			h.led.ok()
		}
		for _, l := range r.lanes {
			if t%h.fps[l.source] == 0 {
				h.poll(l, r.fed(l.source))
			}
		}
	}
}

// churnOnce detaches the current churn lane and attaches the k-th
// (source, query) pair in its place.
func (r *standingRun) churnOnce(k int) {
	h := r.h
	if _, d, err := h.detach(r.churn); err != nil {
		h.led.fail("%v", err)
	} else {
		h.led.ok()
		h.lat.add("detach", r.churnKey, ms(d))
	}
	next := r.pairs[k%len(r.pairs)]
	r.churn = h.firstVerdict(next[0], next[1], false)
	r.churnKey = next[0] + "/" + next[1]
}

// runStanding sets up the workload setupReps times (keeping the last
// server), runs whole rounds for the given duration and checks every
// standing lane.
func runStanding(name string, spec standingSpec, o options) (*report, error) {
	led := &ledger{}
	rep := &report{led: led}
	var r *standingRun
	for i := 0; i < setupReps; i++ {
		dir, err := os.MkdirTemp(o.workDir, name+"-")
		if err != nil {
			return nil, err
		}
		if r != nil {
			r.close()
			os.RemoveAll(r.dir)
		}
		rep.heapBase = liveHeapMB()
		if r, err = setupStanding(spec, o.seed, dir, o.tracer(), led); err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, r.setupS)
	}
	defer func() {
		r.close()
		os.RemoveAll(r.dir)
	}()
	h := r.h
	*led = ledger{}
	measure(rep, []*harness{h}, o.duration, func() bool { return h.room(roundTicks) }, r.round)
	for _, l := range r.lanes {
		rep.pollBytes = append(rep.pollBytes, l.pollBytes...)
	}
	if o.trace {
		st := h.srv.Streamz()
		rep.streamz = &st
	}

	// Checks, outside the timed phase: the union of each standing
	// lane's polls equals its final snapshot, and the lane (attached at
	// frame zero) equals Session.Execute of the query over the same
	// frames. The server is closed before the reference clips are made,
	// so the two sets of clips are never held at once.
	finals := make([]*resultReply, len(r.lanes))
	for i, l := range r.lanes {
		final, _, _, err := h.results(l.id, 0)
		if err != nil {
			led.mismatch("final snapshot: %v", err)
			continue
		}
		h.checkPollUnion(l)
		finals[i] = final
	}
	r.close()
	if spec.archive {
		rep.storeMB = dirMB(r.dir)
	}
	sigs := map[string]map[string]bool{}
	for _, src := range spec.sources {
		// One clip at a time keeps the check's memory to one source.
		clip := vqpy.GenerateVideo(scenarios[src](o.seed, spec.clipSec))
		for i, l := range r.lanes {
			if l.source != src || finals[i] == nil {
				continue
			}
			fed := r.fed(src)
			ref, err := reference(o.seed, clip, l.query, fed)
			if err != nil {
				led.mismatch("reference %s/%s: %v", src, l.query, err)
				continue
			}
			if msg := sameResult(finals[i], ref); msg != "" {
				led.mismatch("lane %s/%s over %d frames differs from Session.Execute: %s", src, l.query, fed, msg)
			}
			if spec.archive {
				sig, err := scanSig(o.seed, clip, l.query)
				if err != nil {
					led.mismatch("scan signature %s: %v", l.query, err)
					continue
				}
				if sigs[src] == nil {
					sigs[src] = map[string]bool{}
				}
				sigs[src][sig] = true
			}
		}
	}
	if spec.archive {
		checkArchive(o.seed, filepath.Join(r.dir, "store"), sigs, r.fed, led)
	}
	return rep, nil
}

// scanSig is the scan-group signature a catalogue query's standing
// lane archives under.
func scanSig(seed uint64, clip *vqpy.Video, query string) (string, error) {
	q, err := serve.BuildQuery(query)
	if err != nil {
		return "", err
	}
	s := vqpy.NewSession(seed)
	p, err := s.PlanQuery(q, clip)
	if err != nil {
		return "", err
	}
	return exec.ScanPrefixOf(p).Key(), nil
}

// checkArchive reopens the store with a fresh handle and checks that
// it covers every fed frame of every standing scan with no corrupt
// records.
func checkArchive(seed uint64, dir string, sigs map[string]map[string]bool, fed func(string) int, led *ledger) {
	st, err := vqpy.OpenStore(dir, seed)
	if err != nil {
		led.mismatch("reopen store: %v", err)
		return
	}
	defer st.Close()
	if n := st.Counters().Get("corrupt_records"); n > 0 {
		led.mismatch("reopened store skipped %d corrupt records", n)
	}
	for src, set := range sigs {
		for sig := range set {
			if !st.CoversScans(src, sig, fed(src)) {
				led.mismatch("reopened store does not cover frames [0,%d) of %s %q", fed(src), src, sig)
			}
		}
	}
}

// dirMB sums the sizes of the regular files under dir, in MB.
func dirMB(dir string) float64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20)
}
