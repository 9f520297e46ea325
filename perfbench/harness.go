package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"vqpy/internal/serve"
)

// harness drives one serve.Server in-process: requests go through its
// HTTP handler with an in-memory recorder (no sockets), frames advance
// through StepAll, and every call is timed. One goroutine drives it.
type harness struct {
	srv  *serve.Server
	h    http.Handler
	tr   *tracer // nil in the untraced run
	led  *ledger
	lat  latencies     // per-operation thread CPU times, ms
	busy time.Duration // thread CPU time spent inside the program
	wall time.Duration // wall time spent inside the program
	// alloc counts the bytes the program allocated inside its calls.
	alloc uint64
	fed   map[string]int // frames fed per source
	clip  map[string]int // clip length per source
	fps   map[string]int
	// spanned counts the frames synchronous archive requests answered
	// over (a search over 300 fed frames spans 300).
	spanned int
}

func newHarness(srv *serve.Server, tr *tracer, led *ledger) *harness {
	h := &harness{srv: srv, h: srv.Handler(), tr: tr, led: led, lat: latencies{},
		fed: map[string]int{}, clip: map[string]int{}, fps: map[string]int{}}
	for _, s := range srv.Streamz().Sources {
		h.clip[s.Name] = s.ClipFrames
		h.fps[s.Name] = s.FPS
	}
	return h
}

// fedTotal is the number of source frames fed so far.
func (h *harness) fedTotal() int {
	n := 0
	for _, f := range h.fed {
		n += f
	}
	return n
}

// room reports whether every source has at least n unfed frames.
func (h *harness) room(n int) bool {
	for name, c := range h.clip {
		if h.fed[name]+n > c {
			return false
		}
	}
	return true
}

// call runs f, one call into the program, and books its thread CPU
// time, wall time and allocated bytes. It returns the CPU time.
func (h *harness) call(span string, f func()) time.Duration {
	id := h.tr.begin(span)
	a0 := allocated()
	t0, c0 := time.Now(), threadCPU()
	f()
	c, d := threadCPU()-c0, time.Since(t0)
	h.alloc += allocated() - a0
	h.tr.end(id)
	h.busy += c
	h.wall += d
	return c
}

// request sends one HTTP request through the handler and returns the
// status, the body and the thread CPU time the handler took.
func (h *harness) request(span, method, path string, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	d := h.call(span, func() { h.h.ServeHTTP(rec, req) })
	return rec.Code, rec.Body.Bytes(), d
}

// step advances every source by one frame.
func (h *harness) step() (time.Duration, error) {
	var err error
	d := h.call("serve.step", func() { err = h.srv.StepAll() })
	for name := range h.clip {
		h.fed[name] = min(h.fed[name]+1, h.clip[name])
	}
	return d, err
}

// stepOne feeds one frame of one source.
func (h *harness) stepOne(source string) error {
	var err error
	h.call("serve.step_one", func() { err = h.srv.Step(source) })
	h.fed[source] = min(h.fed[source]+1, h.clip[source])
	return err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// attachReply is the POST /queries attach reply.
type attachReply struct {
	ID int `json:"id"`
}

// resultReply is the GET /queries/{id}/results and DELETE reply. Hits
// stay raw JSON so they can be compared byte for byte.
type resultReply struct {
	FramesProcessed int `json:"frames_processed"`
	Result          struct {
		Matched         []bool
		Hits            []json.RawMessage
		Count           int
		TrackIDs        []int
		FramesProcessed int
	} `json:"result"`
}

// attach posts an attach request (backfill or not) and returns the id.
func (h *harness) attach(source, query string, backfill bool) (int, time.Duration, error) {
	body := fmt.Sprintf(`{"source":%q,"query":%q,"backfill":%v}`, source, query, backfill)
	code, out, d := h.request("http.attach", "POST", "/queries", []byte(body))
	if code != http.StatusOK {
		return 0, d, fmt.Errorf("attach %s/%s: %d %s", source, query, code, out)
	}
	var r attachReply
	if err := json.Unmarshal(out, &r); err != nil {
		return 0, d, fmt.Errorf("attach %s/%s: %v", source, query, err)
	}
	return r.ID, d, nil
}

// results reads a lane's result, hits restricted to frames >= since.
func (h *harness) results(id, since int) (*resultReply, int, time.Duration, error) {
	code, out, d := h.request("http.poll", "GET", "/queries/"+strconv.Itoa(id)+"/results?since="+strconv.Itoa(since), nil)
	if code != http.StatusOK {
		return nil, len(out), d, fmt.Errorf("results %d: %d %s", id, code, out)
	}
	var r resultReply
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, len(out), d, fmt.Errorf("results %d: %v", id, err)
	}
	return &r, len(out), d, nil
}

// detach removes a lane and returns its final result.
func (h *harness) detach(id int) (*resultReply, time.Duration, error) {
	code, out, d := h.request("http.detach", "DELETE", "/queries/"+strconv.Itoa(id), nil)
	if code != http.StatusOK {
		return nil, d, fmt.Errorf("detach %d: %d %s", id, code, out)
	}
	var r resultReply
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, d, fmt.Errorf("detach %d: %v", id, err)
	}
	return &r, d, nil
}

// firstVerdict attaches a query, feeds one tick and reads the lane
// until it shows its first processed frame: the time a client waits
// from asking to seeing an answer. It returns the new lane's id, or -1
// when the attach failed.
func (h *harness) firstVerdict(source, query string, backfill bool) int {
	mode := "attach"
	if backfill {
		mode = "backfill"
	}
	id, dAttach, err := h.attach(source, query, backfill)
	if err != nil {
		h.led.fail("%v", err)
		return -1
	}
	h.led.ok()
	key := source + "/" + query
	h.lat.add(mode, key, ms(dAttach))
	dStep, err := h.step()
	if err != nil {
		h.led.fail("step: %v", err)
		return id
	}
	h.led.ok()
	r, _, dGet, err := h.results(id, 0)
	switch {
	case err != nil:
		h.led.fail("%v", err)
		return id
	case r.FramesProcessed < 1:
		h.led.fail("lane %d (%s/%s) shows no processed frame after attach and one step", id, source, query)
		return id
	}
	h.led.ok()
	h.lat.add("first_verdict", key, ms(dAttach+dStep+dGet))
	if h.tr != nil {
		// serve.attach: the attach call alone, without HTTP, on a lane
		// that is detached again before any frame moves.
		var lane int
		h.tr.do("serve.attach", func() {
			if backfill {
				lane, err = h.srv.AttachNamedBackfill(source, query)
			} else {
				lane, err = h.srv.AttachNamed(source, query)
			}
		})
		if err == nil {
			_, err = h.srv.Detach(lane)
		}
		if err != nil {
			h.led.mismatch("traced attach %s/%s: %v", source, query, err)
		}
	}
	return id
}

// lane is one standing query the load loop polls with ?since=. The
// union of its polls is folded into a digest so it can be compared
// with the final snapshot without keeping every hit.
type lane struct {
	id            int
	source, query string
	from          int // first frame the first poll asks for
	next          int // first frame the next poll asks for
	polledHits    int
	polled        hash.Hash64
	pollBytes     samples
}

func newLane(id int, source, query string) *lane {
	return &lane{id: id, source: source, query: query, polled: fnv.New64a()}
}

// digest folds hits into d, one compacted JSON hit per line.
func digest(d hash.Hash64, hits []json.RawMessage) error {
	var buf bytes.Buffer
	for _, hit := range hits {
		buf.Reset()
		if err := json.Compact(&buf, hit); err != nil {
			return err
		}
		buf.WriteByte('\n')
		d.Write(buf.Bytes())
	}
	return nil
}

// frameOf returns a raw hit's FrameIdx.
func frameOf(hit json.RawMessage) (int, error) {
	var v struct{ FrameIdx int }
	err := json.Unmarshal(hit, &v)
	return v.FrameIdx, err
}

// poll reads the hits a lane gained since its last poll, checks they
// lie in [since, fed) and folds them into the lane's union hash.
func (h *harness) poll(l *lane, fed int) {
	r, size, d, err := h.results(l.id, l.next)
	if err != nil {
		h.led.fail("%v", err)
		return
	}
	for _, hit := range r.Result.Hits {
		f, err := frameOf(hit)
		if err != nil || f < l.next || f >= fed {
			h.led.fail("lane %d poll since=%d returned hit at frame %d (fed %d, err %v)", l.id, l.next, f, fed, err)
			return
		}
	}
	if err := digest(l.polled, r.Result.Hits); err != nil {
		h.led.fail("lane %d: %v", l.id, err)
		return
	}
	h.led.ok()
	h.lat.add("poll", l.source+"/"+l.query, ms(d))
	l.pollBytes = append(l.pollBytes, float64(size))
	l.polledHits += len(r.Result.Hits)
	if h.tr != nil {
		h.tr.do("serve.results", func() { _, err = h.srv.ResultsSince(l.id, l.next) })
		if err != nil {
			h.led.mismatch("traced results %d: %v", l.id, err)
		}
	}
	l.next = fed
}

// checkPollUnion compares a lane's polled union with its final
// snapshot over the polled frames [from, next): every hit seen exactly
// once, in order.
func (h *harness) checkPollUnion(l *lane) {
	final, _, _, err := h.results(l.id, l.from)
	if err != nil {
		h.led.mismatch("final snapshot: %v", err)
		return
	}
	var hits []json.RawMessage
	for _, hit := range final.Result.Hits {
		if f, err := frameOf(hit); err != nil || f < l.next {
			hits = append(hits, hit)
		}
	}
	want := fnv.New64a()
	if err := digest(want, hits); err != nil {
		h.led.mismatch("lane %d final hits: %v", l.id, err)
		return
	}
	if want.Sum64() != l.polled.Sum64() || len(hits) != l.polledHits {
		h.led.mismatch("lane %d (%s/%s): union of ?since= polls (%d hits) differs from the final snapshot (%d hits)",
			l.id, l.source, l.query, l.polledHits, len(hits))
	}
}

// allocSample reads the process's cumulative heap allocation without
// stopping the world, so it can bracket every call into the program.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocated() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// virtualMS sums the simulated model cost booked on every source.
func (h *harness) virtualMS() float64 {
	total := 0.0
	for _, s := range h.srv.Streamz().Sources {
		total += s.VirtualMS
	}
	return total
}
