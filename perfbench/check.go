package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"

	"vqpy"
	"vqpy/internal/index"
	"vqpy/internal/models"
	"vqpy/internal/serve"
)

// scenarios mirrors the server's source registry: the same generator,
// seed and length give the same frames the server feeds.
var scenarios = map[string]func(uint64, float64) vqpy.Scenario{
	"auburn":      vqpy.DatasetAuburn,
	"banff":       vqpy.DatasetBanff,
	"cityflow":    vqpy.DatasetCityFlow,
	"jackson":     vqpy.DatasetJackson,
	"pickup":      vqpy.DatasetPickup,
	"retail":      vqpy.DatasetRetail,
	"southampton": vqpy.DatasetSouthampton,
}

// reference runs a catalogue query with Session.Execute over the first
// n frames of clip on a fresh session: the per-query path, with no
// shared scan, store or lane state.
func reference(seed uint64, clip *vqpy.Video, query string, n int) (*vqpy.Result, error) {
	q, err := serve.BuildQuery(query)
	if err != nil {
		return nil, err
	}
	s := vqpy.NewSession(seed)
	s.SetNoBurn(true)
	rr, err := s.Execute(q, clip.Clip(0, n))
	if err != nil {
		return nil, err
	}
	if rr.Basic == nil {
		return nil, fmt.Errorf("query %s has no basic result", query)
	}
	return rr.Basic, nil
}

// compact returns v's JSON without insignificant whitespace.
func compact(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sameResult compares a lane result read over HTTP with a reference
// result: per-frame verdicts, hits (byte for byte as JSON), and the
// video-level aggregation. It returns "" when they agree.
func sameResult(got *resultReply, want *vqpy.Result) string {
	if !reflect.DeepEqual(got.Result.Matched, want.Matched) {
		return fmt.Sprintf("matched vectors differ (%d vs %d frames)", len(got.Result.Matched), len(want.Matched))
	}
	if len(got.Result.Hits) != len(want.Hits) {
		return fmt.Sprintf("%d hits vs %d", len(got.Result.Hits), len(want.Hits))
	}
	for i := range want.Hits {
		wb, err := json.Marshal(want.Hits[i])
		if err != nil {
			return err.Error()
		}
		gb, err := compact(got.Result.Hits[i])
		if err != nil {
			return err.Error()
		}
		if !bytes.Equal(gb, wb) {
			return fmt.Sprintf("hit %d differs: %s vs %s", i, gb, wb)
		}
	}
	if got.Result.Count != want.Count || !reflect.DeepEqual(nilIfEmpty(got.Result.TrackIDs), nilIfEmpty(want.TrackIDs)) {
		return fmt.Sprintf("aggregation differs: count %d vs %d", got.Result.Count, want.Count)
	}
	return ""
}

func nilIfEmpty(v []int) []int {
	if len(v) == 0 {
		return nil
	}
	return v
}

// exemplarRule applies the documented exemplar rule of index.Exemplar
// to one scan's entries: among entries with an embedding, pick the one
// whose matches at the default 0.7 threshold span the fewest frames in
// total, ties broken by first frame, then track id (source, signature
// and class are equal within one scan).
func exemplarRule(entries []index.Entry) (index.Entry, bool) {
	var best *index.Entry
	bestSpan := 0
	for i := range entries {
		e := &entries[i]
		if len(e.Vec) == 0 {
			continue
		}
		span := 0
		for j := range entries {
			o := &entries[j]
			if len(o.Vec) > 0 && models.Cosine(o.Vec, e.Vec) >= 0.7 {
				span += o.Last - o.First + 1
			}
		}
		if best == nil || span < bestSpan ||
			(span == bestSpan && (e.First < best.First || (e.First == best.First && e.Track < best.Track))) {
			best, bestSpan = e, span
		}
	}
	if best == nil {
		return index.Entry{}, false
	}
	return *best, true
}

// joinTracks is the brute-force appearance join: every entry whose
// embedding has cosine >= threshold with the exemplar's, with its
// similarity.
func joinTracks(entries []index.Entry, exemplar []float64, threshold float64) map[int]float64 {
	out := make(map[int]float64)
	for _, e := range entries {
		if len(e.Vec) == 0 {
			continue
		}
		if sim := models.Cosine(e.Vec, exemplar); sim >= threshold {
			out[e.Track] = sim
		}
	}
	return out
}

// searchReply is the part of the mode:"search" reply the checks read.
type searchReply struct {
	Track         int             `json:"track"`
	Threshold     float64         `json:"threshold"`
	UsedIndex     bool            `json:"used_index"`
	Covered       int             `json:"covered"`
	SearchFrames  int             `json:"search_frames"`
	MatchedTracks []int           `json:"matched_tracks"`
	Sims          map[int]float64 `json:"sims"`
	MatchedFrames int             `json:"matched_frames"`
	VirtualMS     float64         `json:"virtual_ms"`
	Result        struct {
		Hits []struct {
			FrameIdx int
			Objects  []struct{ TrackID int }
		}
	} `json:"result"`
}

// checkSearch checks a search reply against the brute-force join over
// the scan's index entries: the exemplar is the one asked for (or the
// documented rule's choice when none was), it matches itself, every
// matched track is in the join with its exact similarity, in rank
// order, every returned frame carries a matched track, and every
// joined track seen on a returned frame is matched. It returns "" when
// the reply is right.
func checkSearch(r *searchReply, entries []index.Entry, wantTrack int) string {
	if r.Track != wantTrack {
		return fmt.Sprintf("searched with exemplar track %d, want %d", r.Track, wantTrack)
	}
	if !r.UsedIndex || r.Covered != r.SearchFrames {
		return fmt.Sprintf("index not used over the whole range (used %v, covered %d of %d)", r.UsedIndex, r.Covered, r.SearchFrames)
	}
	var exemplar []float64
	for _, e := range entries {
		if e.Track == wantTrack {
			exemplar = e.Vec
		}
	}
	if exemplar == nil {
		return fmt.Sprintf("exemplar track %d is not indexed", wantTrack)
	}
	join := joinTracks(entries, exemplar, r.Threshold)
	if _, ok := join[wantTrack]; !ok {
		return fmt.Sprintf("exemplar track %d does not match itself", wantTrack)
	}
	matched := make(map[int]bool, len(r.MatchedTracks))
	for i, t := range r.MatchedTracks {
		sim, ok := join[t]
		if !ok {
			return fmt.Sprintf("matched track %d is not in the brute-force join", t)
		}
		if r.Sims[t] != sim {
			return fmt.Sprintf("track %d similarity %v, brute force %v", t, r.Sims[t], sim)
		}
		if i > 0 {
			p := r.MatchedTracks[i-1]
			if join[p] < sim || (join[p] == sim && p > t) {
				return fmt.Sprintf("matched tracks out of rank order at %d", i)
			}
		}
		matched[t] = true
	}
	if len(r.Sims) != len(r.MatchedTracks) {
		return fmt.Sprintf("%d similarities for %d matched tracks", len(r.Sims), len(r.MatchedTracks))
	}
	if len(r.Result.Hits) != r.MatchedFrames {
		return fmt.Sprintf("%d hits for %d matched frames", len(r.Result.Hits), r.MatchedFrames)
	}
	for _, h := range r.Result.Hits {
		carries := false
		for _, o := range h.Objects {
			if matched[o.TrackID] {
				carries = true
			} else if _, joined := join[o.TrackID]; joined {
				return fmt.Sprintf("joined track %d on returned frame %d is not matched", o.TrackID, h.FrameIdx)
			}
		}
		if !carries {
			return fmt.Sprintf("returned frame %d carries no matched track", h.FrameIdx)
		}
	}
	return ""
}
