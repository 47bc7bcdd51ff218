package oracle

import (
	"reflect"
	"strings"
	"testing"
)

// world builds tracks from per-tick positions: pos(label, t) returns the
// position and whether the object is sampled at t.
func world(labels []string, lo, hi int64, pos func(label string, t int64) (x, y float64, ok bool)) []Track {
	var tracks []Track
	for _, l := range labels {
		tr := Track{Label: l}
		for t := lo; t <= hi; t++ {
			if x, y, ok := pos(l, t); ok {
				tr.Samples = append(tr.Samples, Sample{T: t, X: x, Y: y})
			}
		}
		tracks = append(tracks, tr)
	}
	return tracks
}

func keys(cs []Convoy) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Key()
	}
	return out
}

func check(t *testing.T, got []Convoy, want ...string) {
	t.Helper()
	if g := keys(got); !reflect.DeepEqual(g, want) && !(len(g) == 0 && len(want) == 0) {
		t.Fatalf("convoys:\n got  %s\n want %s", strings.Join(g, " | "), strings.Join(want, " | "))
	}
}

// A group of four travels together, splits into two pairs far apart, and
// re-merges. Every maximal convoy must be reported: the whole group before
// the split and after the merge, and each pair over the whole span.
func TestSplitAndRemerge(t *testing.T) {
	tracks := world([]string{"a", "b", "c", "d"}, 0, 24, func(l string, t int64) (float64, float64, bool) {
		x := float64(t) * 10
		y := map[string]float64{"a": 0, "b": 0.5, "c": 1.0, "d": 1.5}[l]
		if t >= 10 && t < 15 && (l == "c" || l == "d") {
			y += 100
		}
		return x, y, true
	})
	check(t, Convoys(tracks, 2, 5, 0.6),
		"0:24:a,b", "0:24:c,d", "0:9:a,b,c,d", "15:24:a,b,c,d")
	check(t, Convoys(tracks, 3, 5, 0.6), "0:9:a,b,c,d", "15:24:a,b,c,d")
	// Too short once k exceeds the stretches the whole group spends together.
	check(t, Convoys(tracks, 3, 11, 0.6))
}

// A convoy whose lifetime is exactly k is reported; one tick short is not.
func TestLifetimeExactlyK(t *testing.T) {
	tracks := world([]string{"a", "b"}, 0, 20, func(l string, t int64) (float64, float64, bool) {
		y := 0.0
		if l == "b" && (t < 5 || t > 11) {
			y = 50 // together on [5, 11]: lifetime 7
		}
		return float64(t), y, true
	})
	check(t, Convoys(tracks, 2, 7, 1), "5:11:a,b")
	check(t, Convoys(tracks, 2, 8, 1))
}

// An object sampled only at the ends of a straight stretch is present, at
// its interpolated position, at every tick in between.
func TestMissingSamplesInterpolated(t *testing.T) {
	tracks := world([]string{"a", "b", "c"}, 0, 9, func(l string, t int64) (float64, float64, bool) {
		switch l {
		case "a":
			return float64(t) * 3, 0, true
		case "b": // sampled at 0, 4 and 9 only, on the same line 0.5 apart
			return float64(t) * 3, 0.5, t == 0 || t == 4 || t == 9
		default: // c is sampled only at its two ends
			if t == 0 || t == 9 {
				return float64(t) * 3, 0.2, true
			}
			return 0, 0, false
		}
	})
	check(t, Convoys(tracks, 3, 10, 1), "0:9:a,b,c")
	frames, _ := Frames(tracks)
	if len(frames) != 10 || len(frames[5].IDs) != 3 {
		t.Fatalf("frame 5 holds %v, want all three objects", frames[5].IDs)
	}
	if x := frames[5].X[1]; x != 15 {
		t.Fatalf("b at tick 5: x=%v, want 15", x)
	}
}

// An object outside its first..last sample is absent, which ends a convoy.
func TestLifespanEndsConvoy(t *testing.T) {
	tracks := world([]string{"a", "b", "c"}, 0, 9, func(l string, t int64) (float64, float64, bool) {
		return float64(t), map[string]float64{"a": 0, "b": 0.5, "c": 1}[l], l != "c" || t <= 5
	})
	check(t, Convoys(tracks, 2, 3, 0.6), "0:5:a,b,c", "0:9:a,b")
}

// The printed CMC opens a fresh candidate only for clusters no candidate
// reached; the group that forms around a running candidate must still be
// reported from the tick it formed.
func TestGroupFormsAroundRunningCandidate(t *testing.T) {
	tracks := world([]string{"a", "b", "c", "d"}, 0, 14, func(l string, t int64) (float64, float64, bool) {
		y := map[string]float64{"a": 0, "b": 0.5, "c": 1, "d": 1.5}[l]
		if l == "d" && t < 5 {
			y = 80
		}
		return float64(t), y, true
	})
	check(t, Convoys(tracks, 3, 5, 0.6), "0:14:a,b,c", "5:14:a,b,c,d")
}

// A border point reached by two clusters belongs to both.
func TestBorderPointInTwoClusters(t *testing.T) {
	xs := map[string]float64{"a2": -0.3, "a3": -0.3, "a1": 0.5, "b": 1.4, "c1": 2.3, "c2": 3.1, "c3": 3.1}
	labels := []string{"a1", "a2", "a3", "b", "c1", "c2", "c3"}
	tracks := world(labels, 0, 3, func(l string, t int64) (float64, float64, bool) {
		return xs[l], 0, true
	})
	frames, names := Frames(tracks)
	got := NewIndex(frames, names, 1).Clusters(0, 1, 4)
	var sets []string
	for _, c := range got {
		var s []string
		for _, id := range c {
			s = append(s, names[id])
		}
		sets = append(sets, strings.Join(s, ","))
	}
	want := []string{"a1,a2,a3,b", "b,c1,c2,c3"}
	if !reflect.DeepEqual(sets, want) {
		t.Fatalf("clusters %v, want %v", sets, want)
	}
	check(t, Convoys(tracks, 4, 4, 1), "0:3:a1,a2,a3,b", "0:3:b,c1,c2,c3")
	// With m = 5 no point is core and nothing clusters.
	check(t, Convoys(tracks, 5, 1, 1))
}

func TestCanonicalDropsContained(t *testing.T) {
	got := Canonical([]Convoy{
		{Objects: []string{"b", "a"}, Start: 2, End: 5},
		{Objects: []string{"a", "b", "c"}, Start: 0, End: 9},
		{Objects: []string{"a", "b"}, Start: 0, End: 12},
		{Objects: []string{"a", "b", "c"}, Start: 0, End: 9},
	})
	check(t, got, "0:12:a,b", "0:9:a,b,c")
}

// Stream answers several queries in one pass exactly as the Index does one
// at a time.
func TestStreamMatchesIndex(t *testing.T) {
	tracks := world([]string{"a", "b", "c", "d", "e"}, 0, 40, func(l string, t int64) (float64, float64, bool) {
		y := map[string]float64{"a": 0, "b": 0.5, "c": 1.0, "d": 1.5, "e": 2.6}[l]
		if t%13 > 8 && (l == "c" || l == "d") {
			y += 30
		}
		return float64(t) * 2, y, l != "e" || t > 5
	})
	frames, labels := Frames(tracks)
	qs := []Query{{2, 4, 0.6}, {3, 4, 0.6}, {2, 10, 1.2}, {3, 3, 1.2}}
	got := Stream(labels, func(yield func(Frame) bool) {
		for _, f := range frames {
			if !yield(f) {
				return
			}
		}
	}, qs)
	ix := NewIndex(frames, labels, 1.2)
	for n, q := range qs {
		want := ix.Convoys(q.M, q.K, q.E)
		if !reflect.DeepEqual(keys(got[n]), keys(want)) || len(want) == 0 {
			t.Fatalf("query %+v: stream %v, index %v", q, keys(got[n]), keys(want))
		}
	}
}
