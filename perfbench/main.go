// Command perfbench is the repository's benchmark: it runs one named
// workload against the serving API in-process, checks the answers, and
// prints every end-to-end metric (or, with -trace 1, every per-layer
// metric) with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . -workload live -seed 1 -seconds 10 -trace 0
//
// Workloads (README.md has the reasons): live, ingest, archive.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"vqpy/internal/serve"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last set-up serves the timed phase.
const setupReps = 3

type options struct {
	workload string
	seed     uint64
	duration time.Duration
	trace    bool
	spans    string
	workDir  string
	tr       *tracer
}

// tracer returns the run's tracer, nil when the run is untraced.
func (o options) tracer() *tracer { return o.tr }

// report is what a workload run measured.
type report struct {
	led        *ledger
	setup      samples // seconds per set-up
	rounds     int
	frames     float64 // source frames fed in the timed phase
	busyS      float64 // thread CPU seconds spent inside the program in the timed phase
	wallS      float64 // wall seconds spent inside the program in the timed phase
	virtualMS  float64
	processed  float64 // frames fed plus frames spanned by archive requests
	heapBase   float64 // live heap before the kept set-up, MB
	allocBytes float64
	heapMB     float64
	storeMB    float64
	lat        latencies // ms per operation
	roundRates samples   // source frames fed per second inside the program, per round
	pollBytes  samples
	queryVMS   samples
	vlmRatio   float64 // lazy verifier calls per text-query frame
	notes      []string
	streamz    *serve.Stats
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs whole rounds until the duration is up, then records
// the timed phase: frames fed, time and bytes allocated inside the
// program (hs[0] is the server the workload feeds; the others only
// answer requests), simulated cost per frame processed, and the live
// heap the program added since just before its kept set-up.
func measure(rep *report, hs []*harness, d time.Duration, room func() bool, round func(n int)) {
	h := hs[0]
	busy := func() time.Duration {
		var t time.Duration
		for _, x := range hs {
			t += x.busy
		}
		return t
	}
	for _, x := range hs {
		x.busy, x.wall, x.alloc, x.lat = 0, 0, 0, latencies{}
	}
	vms0, fed0, spanned0 := h.virtualMS(), h.fedTotal(), h.spanned
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if !room() {
			rep.notes = append(rep.notes, fmt.Sprintf("clip exhausted after %d rounds; the timed phase ended early", rep.rounds))
			break
		}
		b0, f0 := busy(), h.fedTotal()
		round(rep.rounds)
		rep.rounds++
		rep.roundRates = append(rep.roundRates, float64(h.fedTotal()-f0)/(busy()-b0).Seconds())
	}
	rep.frames = float64(h.fedTotal() - fed0)
	rep.busyS = busy().Seconds()
	for _, x := range hs {
		rep.wallS += x.wall.Seconds()
	}
	rep.virtualMS = h.virtualMS() - vms0
	rep.processed = rep.frames + float64(h.spanned-spanned0)
	for _, x := range hs {
		rep.allocBytes += float64(x.alloc)
	}
	rep.heapMB = liveHeapMB() - rep.heapBase
	rep.lat = h.lat
}

// endToEnd computes the end-to-end metrics every workload reports.
func (r *report) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":              {r.setup.median(), "s"},
		"frames_per_s":         {r.frames / r.busyS, "1/s"},
		"first_verdict_ms":     {r.lat.keyed("first_verdict"), "ms"},
		"poll_ms":              {r.lat.keyed("poll"), "ms"},
		"virtual_ms_per_frame": {r.virtualMS / r.processed, "ms"},
		"alloc_kb_per_frame":   {r.allocBytes / r.frames / 1024, "KB"},
		"heap_mb":              {r.heapMB, "MB"},
	}
}

// perLayerUnits names every per-layer metric with its unit.
var perLayerUnits = map[string]string{
	"serve.step_us":                  "us",
	"serve.results_us":               "us",
	"serve.poll_bytes":               "B",
	"serve.attach_us":                "us",
	"exec.feed_us":                   "us",
	"exec.groups_per_source":         "count",
	"exec.lanes_per_group":           "count",
	"exec.replayed_frames_per_query": "count",
	"plan.plan_us":                   "us",
	"plan.candidates":                "count",
	"plan.warm_search_ms":            "ms",
	"plan.archive_fidelity_ms":       "ms",
	"plan.execute_fidelity_ms":       "ms",
	"video.generate_ms":              "ms",
	"video.render_us":                "us",
	"models.detect_us":               "us",
	"models.classify_us":             "us",
	"models.calls_per_frame.detect":  "count",
	"models.calls_per_frame.tracker": "count",
	"models.calls_per_frame.other":   "count",
	"track.update_us":                "us",
	"track.allocs_per_update":        "count",
	"store.put_us":                   "us",
	"store.bytes_per_record":         "B",
	"store.get_cold_us":              "us",
	"store.get_hot_us":               "us",
	"store.hit_ratio":                "ratio",
	"index.extract_ms":               "ms",
	"index.probe_us":                 "us",
	"index.exemplar_us":              "us",
	"index.pruned_ratio":             "ratio",
	"vql.compile_us":                 "us",
	"vql.vlm_frame_ratio":            "ratio",
}

// probeInputs names a workload's sources, clip length and standing
// queries, the inputs of the traced run's layer probe.
func probeInputs(workload string) (sources []string, clipSec float64, queries []string) {
	switch workload {
	case "live":
		return liveSpec.sources, liveSpec.clipSec, liveSpec.queries
	case "ingest":
		return ingestSpec.sources, ingestSpec.clipSec, ingestSpec.queries
	}
	return archiveSources, archiveClipSec, archiveStanding
}

func run(o options) (*report, error) {
	switch o.workload {
	case "live":
		return runStanding("live", liveSpec, o)
	case "ingest":
		return runStanding("ingest", ingestSpec, o)
	case "archive":
		return runArchive(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want live, ingest or archive)", o.workload)
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	// One goroutine drives the program; locking it to its thread makes
	// thread CPU time the time of the program's calls.
	runtime.LockOSThread()
	var o options
	var seed int64
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: live, ingest or archive")
	flag.Int64Var(&seed, "seed", 1, "workload seed (clips and requests derive from it)")
	flag.IntVar(&seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1, write the span JSON here (default .bench_build/perfbench/spans-<workload>-<seed>.json)")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) || seed < 0 {
		return errors.New("need -seconds >= 1, -trace 0 or 1 and -seed >= 0")
	}
	o.seed, o.duration, o.trace = uint64(seed), time.Duration(seconds)*time.Second, trace == 1
	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o.workDir = dir
	if o.trace {
		o.tr = newTracer()
		if o.spans == "" {
			o.spans = filepath.Join(base, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
		}
	}

	fmt.Printf("perfbench: workload %s, seed %d, %d s timed, trace %d, GOMAXPROCS %d\n",
		o.workload, o.seed, seconds, trace, runtime.GOMAXPROCS(0))
	rep, err := run(o)
	if err != nil {
		return err
	}
	e2e := rep.endToEnd()
	printReport(rep, e2e)

	metrics := e2e
	if o.trace {
		sources, clipSec, queries := probeInputs(o.workload)
		p := &layerProbe{tr: o.tr, seed: o.seed, dir: filepath.Join(dir, "layers"), source: "cityflow",
			sources: sources, clipSec: clipSec, queries: queries, out: map[string]float64{}}
		if err := p.run(); err != nil {
			return fmt.Errorf("layer probe: %w", err)
		}
		p.out["serve.step_us"] = p.median("serve.step")
		p.out["serve.results_us"] = p.median("serve.results")
		p.out["serve.attach_us"] = p.median("serve.attach")
		p.out["serve.poll_bytes"] = rep.pollBytes.median()
		if rep.streamz != nil {
			streamzLayers(rep.streamz, p.out)
		}
		if rep.vlmRatio > 0 {
			p.out["vql.vlm_frame_ratio"] = rep.vlmRatio
		}
		metrics = map[string]metric{}
		for name, unit := range perLayerUnits {
			metrics[name] = metric{p.out[name], unit}
		}
		fmt.Println("\nper-layer table (spans made by the benchmark around its calls into each layer):")
		o.tr.printTable(os.Stdout)
		fmt.Println("\nper-layer metrics:")
		printMetrics(metrics)
		if err := o.tr.writeJSON(o.spans); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(o.tr.spans), o.spans)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.led.correct(), rep.led.attempted, rep.led.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// printReport writes the human-readable summary: the gated end-to-end
// metrics, then every per-operation latency with its tail and count,
// the archive figures, and the failure accounting.
func printReport(r *report, e2e map[string]metric) {
	fmt.Printf("rounds %d, source frames fed %.0f, inside the program %.3f s thread CPU, %.3f s wall\n", r.rounds, r.frames, r.busyS, r.wallS)
	fmt.Printf("per-round frame rates: %s\n", r.roundRates.summary("frames/s"))
	fmt.Println("end-to-end metrics:")
	printMetrics(e2e)
	fmt.Println("per-operation latencies:")
	kinds := make([]string, 0, len(r.lat))
	for k := range r.lat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  %-16s %.4g ms over %d inputs; pooled %s\n", k+"_ms", r.lat.keyed(k), len(r.lat[k]), r.lat.pooled(k).summary("ms"))
		if len(r.lat[k]) <= 6 {
			keys := make([]string, 0, len(r.lat[k]))
			for key := range r.lat[k] {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			for _, key := range keys {
				fmt.Printf("    %-22s %.4g ms median, n=%d\n", key, r.lat[k][key].median(), len(r.lat[k][key]))
			}
		}
	}
	fmt.Printf("  %-16s %s\n", "setup_s", r.setup.summary("s"))
	if r.storeMB > 0 {
		fmt.Printf("  store_mb %.3f MB (store and index directories at the end of the run)\n", r.storeMB)
	}
	if len(r.queryVMS) > 0 {
		sum := 0.0
		for _, v := range r.queryVMS {
			sum += v
		}
		fmt.Printf("  virtual_ms_per_query %.4g ms (mean over %d archive queries)\n", sum/float64(len(r.queryVMS)), len(r.queryVMS))
	}
	for _, n := range r.notes {
		fmt.Println("  note:", n)
	}
	fmt.Println("operations:", r.led)
	fmt.Println("correct:", r.led.correct())
}
