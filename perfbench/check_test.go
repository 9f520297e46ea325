package main

import (
	"math"
	"testing"

	"vqpy/internal/index"
)

// unit returns a 2-D unit vector at angle deg.
func unit(deg float64) []float64 {
	r := deg * math.Pi / 180
	return []float64{math.Cos(r), math.Sin(r)}
}

// handIndex is a hand-built scan: tracks 1 and 2 look alike (10°
// apart, cosine 0.985), track 3 is unrelated (90° away), track 4 has
// no embedding. Track 1 spans frames 0-99, track 2 frames 10-14,
// track 3 frames 20-21.
func handIndex() []index.Entry {
	return []index.Entry{
		{Track: 1, First: 0, Last: 99, Vec: unit(0)},
		{Track: 2, First: 10, Last: 14, Vec: unit(10)},
		{Track: 3, First: 20, Last: 21, Vec: unit(90)},
		{Track: 4, First: 5, Last: 50},
	}
}

// TestExemplarRule: the summed span of each entry's matches is 105 for
// tracks 1 and 2 (they match each other) and 2 for track 3, so track 3
// wins; without it, 1 and 2 tie and the earlier first frame wins.
func TestExemplarRule(t *testing.T) {
	e, ok := exemplarRule(handIndex())
	if !ok || e.Track != 3 {
		t.Fatalf("exemplar = %d (ok %v), want 3", e.Track, ok)
	}
	e, ok = exemplarRule(handIndex()[:2])
	if !ok || e.Track != 1 {
		t.Fatalf("exemplar among tracks 1 and 2 = %d, want 1", e.Track)
	}
	if _, ok := exemplarRule(handIndex()[3:]); ok {
		t.Fatal("an entry without an embedding must not be an exemplar")
	}
}

func TestJoinTracks(t *testing.T) {
	join := joinTracks(handIndex(), unit(0), 0.7)
	if len(join) != 2 || join[1] != 1 || join[2] < 0.98 || join[2] > 0.99 {
		t.Fatalf("join at 0.7 = %v, want tracks 1 (1.0) and 2 (~0.985)", join)
	}
	if join := joinTracks(handIndex(), unit(0), 0.99); len(join) != 1 {
		t.Fatalf("join at 0.99 = %v, want track 1 alone", join)
	}
}

// reply builds a search reply for exemplar track 1 over the hand index.
func reply(matched []int, sims map[int]float64, frames map[int][]int) *searchReply {
	r := &searchReply{Track: 1, Threshold: 0.7, UsedIndex: true, Covered: 100, SearchFrames: 100,
		MatchedTracks: matched, Sims: sims, MatchedFrames: len(frames)}
	for f := 0; f < 100; f++ {
		objs, ok := frames[f]
		if !ok {
			continue
		}
		h := struct {
			FrameIdx int
			Objects  []struct{ TrackID int }
		}{FrameIdx: f}
		for _, id := range objs {
			h.Objects = append(h.Objects, struct{ TrackID int }{id})
		}
		r.Result.Hits = append(r.Result.Hits, h)
	}
	return r
}

func TestCheckSearch(t *testing.T) {
	entries := handIndex()
	sim2 := joinTracks(entries, unit(0), 0.7)[2]
	good := reply([]int{1, 2}, map[int]float64{1: 1, 2: sim2}, map[int][]int{0: {1}, 12: {2, 3}})
	if msg := checkSearch(good, entries, 1); msg != "" {
		t.Fatalf("a right reply was refused: %s", msg)
	}
	bad := map[string]*searchReply{
		"wrong exemplar":        reply([]int{1}, map[int]float64{1: 1}, map[int][]int{0: {1}}),
		"unjoined match":        reply([]int{1, 3}, map[int]float64{1: 1, 3: 0}, map[int][]int{0: {1}, 20: {3}}),
		"inexact similarity":    reply([]int{1, 2}, map[int]float64{1: 1, 2: 0.9}, map[int][]int{0: {1}, 12: {2}}),
		"rank order":            reply([]int{2, 1}, map[int]float64{1: 1, 2: sim2}, map[int][]int{0: {1}, 12: {2}}),
		"frame without a match": reply([]int{1}, map[int]float64{1: 1}, map[int][]int{0: {1}, 20: {3}}),
		"joined but unmatched":  reply([]int{1}, map[int]float64{1: 1}, map[int][]int{0: {1, 2}}),
	}
	bad["wrong exemplar"].Track = 2
	for name, r := range bad {
		if msg := checkSearch(r, entries, 1); msg == "" {
			t.Errorf("%s: a wrong reply was accepted", name)
		}
	}
}
