package main

import (
	"fmt"
	"path/filepath"
	"runtime"

	"vqpy"
	"vqpy/internal/models"
	"vqpy/internal/serve"
	"vqpy/internal/store"
	"vqpy/internal/track"
	"vqpy/internal/video"
)

// layerFrames is how many frames of the cityflow clip the traced run
// pushes through each layer's public functions.
const layerFrames = 300

// layerProbe times, in the traced run, the layers the engine calls
// internally. Every call is made by this file on the workload's own
// inputs: its clips (same seed and length as the server's), of which
// the cityflow one (every workload's busiest source) feeds the rest,
// the workload's standing queries, the detections those frames yield
// and the records a store then holds. Counts come from a session this
// file owns.
type layerProbe struct {
	tr      *tracer
	seed    uint64
	dir     string
	source  string
	sources []string
	clipSec float64
	queries []string
	out     map[string]float64
}

func (p *layerProbe) set(name string, v float64) { p.out[name] = v }

func (p *layerProbe) median(span string) float64 { return p.tr.durations(span).median() }

func (p *layerProbe) run() error {
	// video: clip generation per source, and rendering.
	var clip *vqpy.Video
	for _, src := range p.sources {
		var v *vqpy.Video
		p.tr.do("video.generate", func() { v = vqpy.GenerateVideo(scenarios[src](p.seed, p.clipSec)) })
		if src == p.source {
			clip = v
		}
	}
	p.set("video.generate_ms", p.median("video.generate")/1e3)
	n := min(layerFrames, len(clip.Frames))
	frames := clip.Clip(0, n)
	for i := range frames.Frames {
		p.tr.do("video.render", func() { frames.Frames[i].Render() })
	}
	p.set("video.render_us", p.median("video.render"))

	// models: the car detector and the color classifier, host-only.
	sess := vqpy.NewSession(p.seed)
	sess.SetNoBurn(true)
	det, err := sess.Registry().Detector("yolox")
	if err != nil {
		return err
	}
	color, err := sess.Registry().Classifier("color_detect")
	if err != nil {
		return err
	}
	dets := make([][]models.Detection, n)
	for i := range frames.Frames {
		f := &frames.Frames[i]
		p.tr.do("models.detect", func() { dets[i] = det.Detect(sess.Env(), f) })
		raster := f.Render()
		for _, d := range dets[i] {
			p.tr.do("models.classify", func() { color.Classify(sess.Env(), f, raster, d.Box, d.TruthID) })
		}
	}
	p.set("models.detect_us", p.median("models.detect"))
	p.set("models.classify_us", p.median("models.classify"))

	// track: the tracker over the car detections, with its allocations.
	tk := track.NewTracker(track.DefaultConfig())
	var in []track.Detection
	var m0, m1 runtime.MemStats
	updates := 0
	runtime.ReadMemStats(&m0)
	for i := range dets {
		in = in[:0]
		for _, d := range dets[i] {
			if d.Class == video.ClassCar {
				in = append(in, track.Detection{Box: d.Box, Class: int(d.Class), Score: d.Score, Ref: d.TruthID})
			}
		}
		p.tr.do("track.update", func() { tk.Update(in) })
		updates++
	}
	runtime.ReadMemStats(&m1)
	p.set("track.update_us", p.median("track.update"))
	p.set("track.allocs_per_update", float64(m1.Mallocs-m0.Mallocs)/float64(updates))

	// store: detector records put, read back cold after a reopen, then hot.
	storeDir := filepath.Join(p.dir, "store")
	st, err := vqpy.OpenStore(storeDir, p.seed)
	if err != nil {
		return err
	}
	for i := range dets {
		rec := make([]store.Detection, len(dets[i]))
		for j, d := range dets[i] {
			rec[j] = store.Detection{Box: d.Box, Class: int(d.Class), Score: d.Score, TruthID: d.TruthID}
		}
		p.tr.do("store.put", func() { err = st.PutDets(p.source, "yolox", i, rec) })
		if err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	p.set("store.put_us", p.median("store.put"))
	p.set("store.bytes_per_record", dirMB(storeDir)*(1<<20)/float64(n))
	if st, err = vqpy.OpenStore(storeDir, p.seed); err != nil {
		return err
	}
	for _, span := range []string{"store.get_cold", "store.get_hot"} {
		for i := 0; i < n; i++ {
			ok := false
			p.tr.do(span, func() { _, ok = st.GetDets(p.source, "yolox", i) })
			if !ok {
				st.Close()
				return fmt.Errorf("store lost the detections of frame %d", i)
			}
		}
	}
	st.Close()
	p.set("store.get_cold_us", p.median("store.get_cold"))
	p.set("store.get_hot_us", p.median("store.get_hot"))

	// plan and exec: planning every standing query, then one shared
	// stream carrying all of them, fed frame by frame.
	var qs []*vqpy.Query
	candidates := 0.0
	for _, name := range p.queries {
		for rep := 0; rep < 5; rep++ {
			q, err := serve.BuildQuery(name)
			if err != nil {
				return err
			}
			var perr error
			p.tr.do("plan.plan", func() { _, perr = sess.PlanQuery(q, clip) })
			if perr != nil {
				return perr
			}
		}
		q, _ := serve.BuildQuery(name)
		_, cands, err := sess.Explain(q, clip)
		if err != nil {
			return err
		}
		candidates += float64(len(cands))
		q, _ = serve.BuildQuery(name)
		qs = append(qs, q)
	}
	p.set("plan.plan_us", p.median("plan.plan"))
	p.set("plan.candidates", candidates/float64(len(p.queries)))

	feedSess := vqpy.NewSession(p.seed)
	feedSess.SetNoBurn(true)
	mux, err := feedSess.OpenShared(qs, clip, clip.FPS)
	if err != nil {
		return err
	}
	feedSess.Clock().Reset()
	for i := 0; i < n; i++ {
		f := clip.FrameAt(i)
		p.tr.do("exec.feed", func() { _, err = mux.Feed(f) })
		if err != nil {
			return err
		}
	}
	mux.Close()
	p.set("exec.feed_us", p.median("exec.feed"))
	var detect, tracker, other int64
	for account, calls := range feedSess.Clock().InvocationTotals() {
		switch {
		case account == "tracker":
			tracker += calls
		case isDetector(feedSess, account):
			detect += calls
		default:
			other += calls
		}
	}
	p.set("models.calls_per_frame.detect", float64(detect)/float64(n))
	p.set("models.calls_per_frame.tracker", float64(tracker)/float64(n))
	p.set("models.calls_per_frame.other", float64(other)/float64(n))

	return p.archive(clip, n)
}

// archive runs the archive layers on the probe's own store and index
// over the first n frames: search warm-up, index extraction, probes,
// the exemplar pick, fidelity tiers, a search, and text compilation
// and answering.
func (p *layerProbe) archive(clip *vqpy.Video, n int) error {
	st, err := vqpy.OpenStore(filepath.Join(p.dir, "archive-store"), p.seed)
	if err != nil {
		return err
	}
	defer st.Close()
	x, err := vqpy.OpenIndex(filepath.Join(p.dir, "archive-index"), p.seed)
	if err != nil {
		return err
	}
	defer x.Close()
	sess := vqpy.NewSession(p.seed)
	sess.SetNoBurn(true)
	q, err := serve.BuildQuery(searchQuery)
	if err != nil {
		return err
	}
	withStore := vqpy.WithStore(st)
	for rep := 0; rep < 3; rep++ {
		p.tr.do("plan.warm_search", func() { err = sess.WarmSearchArchive(q, clip, n, withStore) })
		if err != nil {
			return err
		}
	}
	p.set("plan.warm_search_ms", p.median("plan.warm_search")/1e3)
	p.tr.do("index.extract", func() { _, err = sess.IndexArchive(x, q, clip, n, withStore) })
	if err != nil {
		return err
	}
	p.set("index.extract_ms", p.median("index.extract")/1e3)

	sig, class, err := searchSig(p.seed, clip, searchQuery)
	if err != nil {
		return err
	}
	entries := x.Entries(p.source, sig, class)
	for _, e := range entries {
		if len(e.Vec) > 0 {
			p.tr.do("index.probe", func() { x.Probe(sess.Env(), p.source, sig, class, e.Vec, 0.7) })
		}
	}
	p.set("index.probe_us", p.median("index.probe"))
	exemplar, ok := exemplarRule(entries)
	if !ok {
		return fmt.Errorf("no embeddable entry in the probe's index")
	}
	for rep := 0; rep < 5; rep++ {
		p.tr.do("index.exemplar", func() { x.Exemplar() })
	}
	p.set("index.exemplar_us", p.median("index.exemplar"))
	var res *vqpy.SearchResult
	p.tr.do("plan.search", func() {
		res, err = sess.Search(clip, vqpy.SearchSpec{Query: q, Track: exemplar.Track, Frames: n}, withStore, vqpy.WithIndex(x))
	})
	if err != nil {
		return err
	}
	p.set("index.pruned_ratio", 1-float64(res.VerifiedFrames)/float64(n))

	for _, fid := range vqpy.FidelityLattice("")[1:] {
		p.tr.do("plan.archive_fidelity", func() { _, err = sess.ArchiveFidelity(q, clip, fid, n, withStore) })
		if err != nil {
			return err
		}
	}
	p.set("plan.archive_fidelity_ms", p.median("plan.archive_fidelity")/1e3)
	var fres *vqpy.FidelityResult
	for rep := 0; rep < 3; rep++ {
		p.tr.do("plan.execute_fidelity", func() {
			fres, err = sess.ExecuteFidelity(q, clip, n, withStore, vqpy.WithMinAccuracy(fidelityFloor))
		})
		if err != nil {
			return err
		}
	}
	p.set("plan.execute_fidelity_ms", p.median("plan.execute_fidelity")/1e3)
	p.set("exec.replayed_frames_per_query", float64(res.VerifiedFrames+fres.ReplayedFrames)/2)

	hits, misses := int64(0), int64(0)
	for name, v := range st.Counters().Snapshot() {
		switch {
		case len(name) > 5 && (name[len(name)-5:] == "_hits"):
			hits += v
		case len(name) > 7 && name[len(name)-7:] == "_misses":
			misses += v
		}
	}
	if hits+misses > 0 {
		p.set("store.hit_ratio", float64(hits)/float64(hits+misses))
	}

	for rep := 0; rep < 20; rep++ {
		for _, sentence := range archiveSentences {
			p.tr.do("vql.compile", func() { _, err = vqpy.CompileText(sentence) })
			if err != nil {
				return err
			}
		}
	}
	p.set("vql.compile_us", p.median("vql.compile"))
	var tres *vqpy.TextResult
	p.tr.do("vql.text", func() { tres, err = sess.Text(archiveSentences["cityflow"], clip.Clip(0, n)) })
	if err != nil {
		return err
	}
	p.set("vql.vlm_frame_ratio", float64(tres.VLMCalls)/float64(tres.Frames))
	return nil
}

func isDetector(s *vqpy.Session, account string) bool {
	_, err := s.Registry().Detector(account)
	return err == nil
}

// streamzLayers reads the per-layer counts the server exposes on
// /streamz, overriding the probe's own where the workload's server
// ran that layer.
func streamzLayers(st *serve.Stats, out map[string]float64) {
	groups, lanes := 0, 0
	for _, s := range st.Sources {
		groups += len(s.Groups)
		lanes += len(s.Lanes)
	}
	if len(st.Sources) > 0 {
		out["exec.groups_per_source"] = float64(groups) / float64(len(st.Sources))
	}
	if groups > 0 {
		out["exec.lanes_per_group"] = float64(lanes) / float64(groups)
	}
	if st.Store != nil {
		hits, misses := int64(0), int64(0)
		for name, v := range st.Store.Counters {
			switch {
			case len(name) > 5 && name[len(name)-5:] == "_hits":
				hits += v
			case len(name) > 7 && name[len(name)-7:] == "_misses":
				misses += v
			}
		}
		if hits+misses > 0 {
			out["store.hit_ratio"] = float64(hits) / float64(hits+misses)
		}
	}
	queries := st.Counters["searches"] + st.Counters["fidelity_queries"]
	if queries > 0 {
		out["exec.replayed_frames_per_query"] = float64(st.Counters["search_verified_frames"]+st.Counters["fidelity_replayed_frames"]) / float64(queries)
	}
	if st.Index != nil && st.Index.SearchFrames > 0 {
		out["index.pruned_ratio"] = st.Index.PrunedFrameRatio
	}
}
