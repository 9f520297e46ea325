package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vqpy"
	"vqpy/internal/exec"
	"vqpy/internal/index"
	"vqpy/internal/plan"
	"vqpy/internal/serve"
	"vqpy/internal/video"
)

// The archive workload: analysts querying a recorded archive. Set-up
// ingests every source with two standing queries, under a store and an
// index, until the source's archive holds archiveCarSightings car
// sightings (ground-truth cars summed over the fed frames); the timed
// phase is a closed loop of synchronous requests rotating over the
// sources. Archive queries cost in proportion to the car sightings
// they replay (their property labels dominate the store reads), so an
// archive sized by sightings costs the same on every seed, where one
// sized by frames would follow the seed's traffic.
const (
	archiveClipSec      = 150
	archiveCarSightings = 1500
	searchQuery         = "redcar"
	backfillQuery       = "plates"
	fidelityQuery       = "plates"
	fidelityFloor       = 0.9
	warmRounds          = 2
)

var (
	archiveSources  = []string{"cityflow", "jackson", "banff"}
	archiveStanding = []string{"redcar", "people"}
)

// archiveSentences gives each source one sentence of the text grammar
// (DESIGN.md §13), so every round asks the same mix.
var archiveSentences = map[string]string{
	"cityflow": "a red car that is parked near the crosswalk",
	"jackson":  "blue hatchback car stopped",
	"banff":    "white van car stopped on crosswalk",
}

// The known fault: a search sent without "track" takes its exemplar
// from index.Exemplar, which ranks the entries of every source and
// scan together, so on any source but the one holding the global pick
// it searches for an unrelated object or answers 400. The probe runs
// on a small archive of fixed seed and length, apart from the
// workload's seeded one, so the fault shows the same way on every run.
const (
	faultSeed         = 7
	faultClipSec      = 20
	faultCarSightings = 600
)

var faultSources = []string{"cityflow", "jackson"}

// faultPolls is how many times a round polls each standing lane of the
// fixed archive. Polls go there because a poll copies its lane's whole
// history before filtering it by since, and the seeded archive's
// history follows the seed's traffic: polling its lanes spread poll_ms
// 0.25-0.34 across seeds.
const faultPolls = 3

// archiveServer is one server over a store and an index, with the
// per-source facts the checks need.
type archiveServer struct {
	h        *harness
	dir      string
	seed     uint64
	lanes    []*lane // standing lanes, attached at frame 0
	sig      string  // search scan signature of searchQuery
	class    int
	exemplar map[string]int // per-source exemplar by the documented rule
	closed   bool
}

func (a *archiveServer) close() {
	if !a.closed {
		a.h.srv.Close()
		a.closed = true
	}
}

func (a *archiveServer) fed(source string) int { return a.h.fed[source] }

// openArchive starts a server over fresh store and index directories,
// attaches the standing queries, ingests every source until it holds
// sightings car sightings and warms the search index of every source.
// clips are the server's clips, made apart from it.
func openArchive(seed uint64, clipSec float64, clips map[string]*vqpy.Video, sources, standing []string, sightings int, dir string, tr *tracer, led *ledger) (*archiveServer, error) {
	srv, err := serve.NewServer(serve.Config{
		Seed: seed, Seconds: clipSec,
		StoreDir: filepath.Join(dir, "store"), IndexDir: filepath.Join(dir, "index"),
	}, sources)
	if err != nil {
		return nil, err
	}
	a := &archiveServer{h: newHarness(srv, tr, led), dir: dir, seed: seed}
	for _, src := range sources {
		for _, q := range standing {
			id, _, err := a.h.attach(src, q, false)
			if err != nil {
				a.close()
				return nil, err
			}
			a.lanes = append(a.lanes, newLane(id, src, q))
		}
	}
	for _, src := range sources {
		for cars := 0; cars < sightings; {
			f := a.h.fed[src]
			if f >= len(clips[src].Frames) {
				a.close()
				return nil, fmt.Errorf("the %s clip holds fewer than %d car sightings", src, sightings)
			}
			if err := a.h.stepOne(src); err != nil {
				a.close()
				return nil, err
			}
			for _, o := range clips[src].Frames[f].Objects {
				if o.Class == video.ClassCar {
					cars++
				}
			}
		}
	}
	for _, l := range a.lanes {
		l.from, l.next = a.fed(l.source), a.fed(l.source)
	}
	if a.sig, a.class, err = searchSig(seed, clips[sources[0]], searchQuery); err != nil {
		a.close()
		return nil, err
	}
	// The first search of a source builds its search archive and index
	// entries. It is sent without a track, and its answer is not judged
	// here: the exemplar it would need is what this set-up computes.
	for _, src := range sources {
		code, out, _ := a.h.request("http.search", "POST", "/queries",
			[]byte(fmt.Sprintf(`{"mode":"search","source":%q,"query":%q}`, src, searchQuery)))
		if code != http.StatusOK && !strings.Contains(string(out), "is not indexed") {
			a.close()
			return nil, fmt.Errorf("warming search on %s: %d %s", src, code, out)
		}
	}
	a.exemplar = map[string]int{}
	err = a.withIndex(func(x *index.Index) error {
		for _, src := range sources {
			e, ok := exemplarRule(x.Entries(src, a.sig, a.class))
			if !ok {
				return fmt.Errorf("no embeddable index entry on %s", src)
			}
			a.exemplar[src] = e.Track
		}
		return nil
	})
	if err != nil {
		a.close()
		return nil, err
	}
	return a, nil
}

// withIndex opens a second handle on the server's index directory and
// passes it to f. The server writes index records straight to the log
// before it answers, so the handle sees every entry the last reply
// relied on.
func (a *archiveServer) withIndex(f func(*index.Index) error) error {
	x, err := vqpy.OpenIndex(filepath.Join(a.dir, "index"), a.seed)
	if err != nil {
		return err
	}
	defer x.Close()
	return f(x)
}

// searchSig is the scan signature and class a search for query is
// archived and indexed under: the plan compiled without memoization,
// as archive search compiles it.
func searchSig(seed uint64, clip *vqpy.Video, query string) (string, int, error) {
	q, err := serve.BuildQuery(query)
	if err != nil {
		return "", 0, err
	}
	s := vqpy.NewSession(seed)
	pl, err := plan.NewPlanner(plan.Options{Env: s.Env(), Registry: s.Registry(), DisableMemo: true})
	if err != nil {
		return "", 0, err
	}
	p, _, err := pl.PlanBasic(q, clip)
	if err != nil {
		return "", 0, err
	}
	sig := exec.ScanPrefixOf(p)
	return sig.Key(), int(sig.Class), nil
}

// search sends one search; track < 0 leaves the exemplar to the server.
func (a *archiveServer) search(source string, track int) (*searchReply, time.Duration, error) {
	body := fmt.Sprintf(`{"mode":"search","source":%q,"query":%q}`, source, searchQuery)
	if track >= 0 {
		body = fmt.Sprintf(`{"mode":"search","source":%q,"query":%q,"track":%d}`, source, searchQuery, track)
	}
	code, out, d := a.h.request("http.search", "POST", "/queries", []byte(body))
	if code != http.StatusOK {
		return nil, d, fmt.Errorf("search %s: %d %s", source, code, strings.TrimSpace(string(out)))
	}
	var r searchReply
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, d, fmt.Errorf("search %s: %v", source, err)
	}
	return &r, d, nil
}

// fidelityReply is the part of the mode:"fidelity" reply the checks read.
type fidelityReply struct {
	Frames            int     `json:"frames"`
	Chosen            string  `json:"chosen"`
	Live              bool    `json:"live"`
	EstimatedAccuracy float64 `json:"estimated_accuracy"`
	ReplayedFrames    int     `json:"replayed_frames"`
	DegradedFrames    int     `json:"degraded_frames"`
	ResidualFrames    int     `json:"residual_frames"`
	MatchedFrames     int     `json:"matched_frames"`
	VirtualMS         float64 `json:"virtual_ms"`
}

// textReply is the part of the mode:"text" reply the checks read.
type textReply struct {
	Concepts        []string `json:"concepts"`
	Frames          int      `json:"frames"`
	UndecidedFrames int      `json:"undecided_frames"`
	VLMCalls        int      `json:"vlm_calls"`
	MatchedFrames   int      `json:"matched_frames"`
	Events          int      `json:"events"`
	Hits            int      `json:"hits"`
	VirtualMS       float64  `json:"virtual_ms"`
}

// post sends a synchronous mode request and decodes a 200 reply.
func (a *archiveServer) post(span, body string, v any) (time.Duration, error) {
	code, out, d := a.h.request(span, "POST", "/queries", []byte(body))
	if code != http.StatusOK {
		return d, fmt.Errorf("%s: %d %s", body, code, strings.TrimSpace(string(out)))
	}
	return d, json.Unmarshal(out, v)
}

// archiveRun is the archive workload's state across rounds.
type archiveRun struct {
	main, fault *archiveServer
	clips       map[string]*vqpy.Video
	queryVMS    []float64
	vlmCalls    int // verifier calls of the lazy text queries
	textFrames  int // frames those queries spanned
	setupS      float64
}

func (r *archiveRun) close() {
	for _, a := range []*archiveServer{r.main, r.fault} {
		if a != nil {
			a.close()
			os.RemoveAll(a.dir)
		}
	}
}

func setupArchive(o options, clips, faultClips map[string]*vqpy.Video, led *ledger) (*archiveRun, error) {
	c0 := threadCPU()
	r := &archiveRun{clips: clips}
	dir, err := os.MkdirTemp(o.workDir, "archive-")
	if err != nil {
		return nil, err
	}
	if r.main, err = openArchive(o.seed, archiveClipSec, clips, archiveSources, archiveStanding, archiveCarSightings, dir, o.tracer(), led); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	fdir, err := os.MkdirTemp(o.workDir, "fault-")
	if err != nil {
		r.close()
		return nil, err
	}
	if r.fault, err = openArchive(faultSeed, faultClipSec, faultClips, faultSources, []string{searchQuery}, faultCarSightings, fdir, o.tracer(), led); err != nil {
		os.RemoveAll(fdir)
		r.close()
		return nil, err
	}
	// Warm-up rounds archive the fidelity tiers and fill the store's
	// memory tier, so the timed rounds see the steady state.
	for i := 0; i < warmRounds; i++ {
		r.round(o.seed)
	}
	r.setupS = (threadCPU() - c0).Seconds()
	return r, nil
}

// round sends, for every source: a search with the source's exemplar,
// a fidelity query at the 0.9 floor, a lazy text query checked against
// its eager twin, a backfill attach with one step and its first
// verdict, and the lane's detach. Then it polls the fixed archive's
// standing lanes and sends one search without a track to each of its
// sources.
func (r *archiveRun) round(seed uint64) {
	a := r.main
	h := a.h
	led := h.led
	for _, src := range archiveSources {
		// search
		if rep, d, err := a.search(src, a.exemplar[src]); err != nil {
			led.fail("%v", err)
		} else {
			var msg string
			err := a.withIndex(func(x *index.Index) error {
				msg = checkSearch(rep, x.Entries(src, a.sig, a.class), a.exemplar[src])
				return nil
			})
			switch {
			case err != nil:
				led.fail("search check %s: %v", src, err)
			case msg != "":
				led.fail("search %s: %s", src, msg)
			default:
				led.ok()
				h.lat.add("search", src, ms(d))
				h.spanned += rep.SearchFrames
				r.queryVMS = append(r.queryVMS, rep.VirtualMS)
			}
		}

		// fidelity
		var f fidelityReply
		d, err := a.post("http.fidelity", fmt.Sprintf(`{"mode":"fidelity","source":%q,"query":%q,"accuracy":%g}`, src, fidelityQuery, fidelityFloor), &f)
		switch {
		case err != nil:
			led.fail("%v", err)
		case f.EstimatedAccuracy < fidelityFloor || f.Frames != a.fed(src) ||
			f.ReplayedFrames+f.DegradedFrames+f.ResidualFrames == 0:
			led.fail("fidelity %s: %+v (floor %g, fed %d)", src, f, fidelityFloor, a.fed(src))
		default:
			led.ok()
			h.lat.add("fidelity", src, ms(d))
			h.spanned += f.Frames
			r.queryVMS = append(r.queryVMS, f.VirtualMS)
		}

		// text, lazy then eager
		var lazy, eager textReply
		sentence := archiveSentences[src]
		d, err = a.post("http.text", fmt.Sprintf(`{"mode":"text","source":%q,"text":%q}`, src, sentence), &lazy)
		if err != nil {
			led.fail("%v", err)
		} else {
			led.ok()
			h.lat.add("text", src, ms(d))
			h.spanned += lazy.Frames
			r.queryVMS = append(r.queryVMS, lazy.VirtualMS)
			r.vlmCalls += lazy.VLMCalls
			r.textFrames += lazy.Frames
			if _, err := a.post("http.text_eager", fmt.Sprintf(`{"mode":"text","source":%q,"text":%q,"eager":true}`, src, sentence), &eager); err != nil {
				led.fail("%v", err)
			} else if lazy.MatchedFrames != eager.MatchedFrames || lazy.Events != eager.Events || lazy.Hits != eager.Hits ||
				lazy.VLMCalls > lazy.Frames || (len(eager.Concepts) > 0 && eager.VLMCalls != eager.Frames) || lazy.Frames != a.fed(src) {
				led.fail("text %s %q: lazy %+v vs eager %+v", src, sentence, lazy, eager)
			} else {
				led.ok()
				h.spanned += eager.Frames
			}
		}

		// backfill attach, first verdict, detach and the shared-scan check
		h.spanned += a.fed(src) // the history a backfill replays
		if id := h.firstVerdict(src, backfillQuery, true); id >= 0 {
			final, _, err := h.detach(id)
			if err != nil {
				led.fail("%v", err)
			} else if ref, err := reference(seed, r.clips[src], backfillQuery, final.Result.FramesProcessed); err != nil {
				led.fail("reference %s: %v", src, err)
			} else if final.Result.FramesProcessed != a.fed(src) {
				led.fail("backfilled lane on %s covers %d frames, fed %d", src, final.Result.FramesProcessed, a.fed(src))
			} else if msg := sameResult(final, ref); msg != "" {
				led.fail("backfilled lane %s/%s differs from Session.Execute: %s", src, backfillQuery, msg)
			} else {
				led.ok()
			}
		}
	}

	// polls of the fixed archive's standing lanes
	for i := 0; i < faultPolls; i++ {
		for _, l := range r.fault.lanes {
			r.fault.h.poll(l, r.fault.fed(l.source))
		}
	}

	// the known fault
	for _, src := range faultSources {
		rep, _, err := r.fault.search(src, -1)
		want := r.fault.exemplar[src]
		switch {
		case err != nil && strings.Contains(err.Error(), "is not indexed"):
			led.knownFail()
		case err != nil:
			led.fail("%v", err)
		case rep.Track != want:
			led.knownFail()
		default:
			var msg string
			r.fault.withIndex(func(x *index.Index) error {
				msg = checkSearch(rep, x.Entries(src, r.fault.sig, r.fault.class), want)
				return nil
			})
			if msg != "" {
				led.fail("search %s without track: %s", src, msg)
			} else {
				led.ok()
			}
		}
	}
}

// runArchive sets the workload up setupReps times (keeping the last),
// runs whole rounds for the given duration and checks the answers.
func runArchive(o options) (*report, error) {
	led := &ledger{}
	rep := &report{led: led}
	// The clips the checks compare against are made apart from the
	// server's, before set-up, so they do not count as set-up time.
	clips, faultClips := map[string]*vqpy.Video{}, map[string]*vqpy.Video{}
	for _, src := range archiveSources {
		clips[src] = vqpy.GenerateVideo(scenarios[src](o.seed, archiveClipSec))
	}
	for _, src := range faultSources {
		faultClips[src] = vqpy.GenerateVideo(scenarios[src](faultSeed, faultClipSec))
	}
	var r *archiveRun
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
		}
		var err error
		rep.heapBase = liveHeapMB()
		if r, err = setupArchive(o, clips, faultClips, led); err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, r.setupS)
	}
	defer r.close()
	a := r.main
	h := a.h
	*led = ledger{}
	r.queryVMS, r.vlmCalls, r.textFrames = nil, 0, 0
	measure(rep, []*harness{h, r.fault.h}, o.duration,
		func() bool { return h.room(len(archiveSources)) },
		func(int) { r.round(o.seed) })
	rep.queryVMS = r.queryVMS
	if r.textFrames > 0 {
		rep.vlmRatio = float64(r.vlmCalls) / float64(r.textFrames)
	}
	for _, l := range r.fault.lanes {
		rep.pollBytes = append(rep.pollBytes, l.pollBytes...)
		r.fault.h.checkPollUnion(l)
	}
	rep.lat["poll"] = r.fault.h.lat["poll"]
	if o.trace {
		st := a.h.srv.Streamz()
		rep.streamz = &st
	}

	// Checks, outside the timed phase: the polled lanes against their
	// polls (above), the standing lanes against Session.Execute, and the
	// last fidelity answer of each source against the live verdicts.
	sigs := map[string]map[string]bool{}
	for _, l := range a.lanes {
		final, _, _, err := h.results(l.id, 0)
		if err != nil {
			led.mismatch("final snapshot: %v", err)
			continue
		}
		ref, err := reference(o.seed, r.clips[l.source], l.query, a.fed(l.source))
		if err != nil {
			led.mismatch("reference: %v", err)
			continue
		}
		if msg := sameResult(final, ref); msg != "" {
			led.mismatch("lane %s/%s differs from Session.Execute: %s", l.source, l.query, msg)
		}
		sig, err := scanSig(o.seed, r.clips[l.source], l.query)
		if err != nil {
			led.mismatch("scan signature: %v", err)
			continue
		}
		if sigs[l.source] == nil {
			sigs[l.source] = map[string]bool{}
		}
		sigs[l.source][sig] = true
	}
	finals := map[string]*fidelityReply{}
	for _, src := range archiveSources {
		var f fidelityReply
		if _, err := a.post("http.fidelity", fmt.Sprintf(`{"mode":"fidelity","source":%q,"query":%q,"accuracy":%g}`, src, fidelityQuery, fidelityFloor), &f); err != nil {
			led.mismatch("final fidelity %s: %v", src, err)
			continue
		}
		finals[src] = &f
	}
	a.close()
	rep.storeMB = dirMB(a.dir)
	checkArchive(o.seed, filepath.Join(a.dir, "store"), sigs, a.fed, led)
	checkFidelity(o.seed, filepath.Join(a.dir, "store"), r.clips, finals, a.fed, led)
	return rep, nil
}

// checkFidelity answers each source's fidelity query again through the
// library over the reopened store, checks it makes the same choice and
// verdict count as the server's last reply, and that its per-frame
// verdicts agree with Session.Execute's live verdicts on at least the
// floor's share of frames.
func checkFidelity(seed uint64, dir string, clips map[string]*vqpy.Video, finals map[string]*fidelityReply, fed func(string) int, led *ledger) {
	st, err := vqpy.OpenStore(dir, seed)
	if err != nil {
		led.mismatch("reopen store: %v", err)
		return
	}
	defer st.Close()
	for _, src := range archiveSources {
		f := finals[src]
		if f == nil {
			continue
		}
		q, err := serve.BuildQuery(fidelityQuery)
		if err != nil {
			led.mismatch("%v", err)
			return
		}
		s := vqpy.NewSession(seed)
		s.SetNoBurn(true)
		n := fed(src)
		res, err := s.ExecuteFidelity(q, clips[src], n, vqpy.WithStore(st), vqpy.WithMinAccuracy(fidelityFloor))
		if err != nil {
			led.mismatch("fidelity %s through the library: %v", src, err)
			continue
		}
		matched := 0
		for _, m := range res.Matched {
			if m {
				matched++
			}
		}
		if chosen := res.Decision.ChosenCandidate(); chosen.Key != f.Chosen || matched != f.MatchedFrames {
			led.mismatch("fidelity %s: server chose %s with %d matched frames, library %s with %d",
				src, f.Chosen, f.MatchedFrames, chosen.Key, matched)
			continue
		}
		live, err := reference(seed, clips[src], fidelityQuery, n)
		if err != nil {
			led.mismatch("reference %s: %v", src, err)
			continue
		}
		if len(live.Matched) != len(res.Matched) {
			led.mismatch("fidelity %s: %d verdicts vs %d live", src, len(res.Matched), len(live.Matched))
			continue
		}
		agree := 0
		for i := range live.Matched {
			if live.Matched[i] == res.Matched[i] {
				agree++
			}
		}
		share := float64(agree) / float64(n)
		fmt.Printf("fidelity %s: %s, %d matched frames, agreement with live %.4f\n", src, f.Chosen, matched, share)
		if share < fidelityFloor {
			led.mismatch("fidelity %s agrees with live verdicts on %.3f of frames, below the %.2f floor", src, share, fidelityFloor)
		}
	}
}
