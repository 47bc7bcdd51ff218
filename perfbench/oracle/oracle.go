// Package oracle is a deliberately plain convoy miner used to check the
// answers of the system under benchmark. It shares no code with the
// program: it reads the generator's trajectories (not the program's parse),
// clusters every tick by comparing all pairs of points, and chains the
// clusters tick by tick.
//
// Semantics, after the paper's Definitions 2–3 and its CMC procedure:
//
//   - A point's e-neighbourhood holds every point within distance e of it,
//     itself included; a point is core when its neighbourhood holds at
//     least m points.
//   - A cluster is a maximal density-connected set: the core points joined
//     by core-to-core links of length ≤ e, plus every point within e of
//     one of them. A border point belongs to every cluster that reaches it.
//   - An object is present at every integer tick between its first and
//     last sample; between samples its position is linearly interpolated.
//   - Chaining follows CMC: every live candidate is intersected with every
//     cluster of the next tick and continues as each intersection that
//     still holds m objects. Two departures from the printed Algorithm 1
//     make the answer the set of all maximal convoys of Definition 3:
//     a candidate that does not continue whole is reported (when it lived
//     k ticks) even if a smaller part of it continues, and every cluster
//     opens a fresh candidate, not only clusters no candidate reached.
//     Identical candidates merge, keeping the earliest start.
//   - The answer drops duplicate convoys and every convoy whose objects and
//     interval are both contained in another's.
package oracle

import (
	"iter"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one recorded position of an object.
type Sample struct {
	T    int64
	X, Y float64
}

// Track is one object's samples in ascending tick order.
type Track struct {
	Label   string
	Samples []Sample
}

// Frame is the set of objects present at one tick and their positions.
// IDs index into the label table the frames were built with.
type Frame struct {
	T    int64
	IDs  []int
	X, Y []float64
}

// Convoy is one answer: member labels in ascending order and the inclusive
// tick interval.
type Convoy struct {
	Objects    []string
	Start, End int64
}

// Key renders the convoy as a comparable string.
func (c Convoy) Key() string {
	return strconv.FormatInt(c.Start, 10) + ":" + strconv.FormatInt(c.End, 10) + ":" + strings.Join(c.Objects, ",")
}

// Frames interpolates the tracks onto every integer tick from the earliest
// first sample to the latest last sample. It returns the frames and the
// label table (labels[id]).
func Frames(tracks []Track) ([]Frame, []string) {
	labels := make([]string, len(tracks))
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for i, tr := range tracks {
		labels[i] = tr.Label
		if len(tr.Samples) == 0 {
			continue
		}
		lo = min(lo, tr.Samples[0].T)
		hi = max(hi, tr.Samples[len(tr.Samples)-1].T)
	}
	if lo > hi {
		return nil, labels
	}
	frames := make([]Frame, hi-lo+1)
	for i := range frames {
		frames[i].T = lo + int64(i)
	}
	for id, tr := range tracks {
		s := tr.Samples
		for j := 0; j < len(s); j++ {
			a := s[j]
			frames[a.T-lo].add(id, a.X, a.Y)
			if j+1 == len(s) {
				break
			}
			b := s[j+1]
			for t := a.T + 1; t < b.T; t++ {
				f := float64(t-a.T) / float64(b.T-a.T)
				frames[t-lo].add(id, a.X+f*(b.X-a.X), a.Y+f*(b.Y-a.Y))
			}
		}
	}
	return frames, labels
}

func (f *Frame) add(id int, x, y float64) {
	f.IDs = append(f.IDs, id)
	f.X = append(f.X, x)
	f.Y = append(f.Y, y)
}

// Index holds, per frame, every pair of points within MaxEps of each other,
// so that many (m, k, e) queries with e ≤ MaxEps share one all-pairs pass.
type Index struct {
	frames []Frame
	labels []string
	maxEps float64
	pairs  [][]pair
	memo   map[clusterKey][][][]int
}

type pair struct {
	i, j int32 // positions within the frame
	d2   float64
}

type clusterKey struct {
	e float64
	m int
}

// NewIndex compares every pair of points of every frame once.
func NewIndex(frames []Frame, labels []string, maxEps float64) *Index {
	ix := &Index{frames: frames, labels: labels, maxEps: maxEps, pairs: make([][]pair, len(frames)),
		memo: map[clusterKey][][][]int{}}
	for n, f := range frames {
		ix.pairs[n] = pairsWithin(f, maxEps)
	}
	return ix
}

// pairsWithin compares every pair of points of the frame.
func pairsWithin(f Frame, eps float64) []pair {
	lim := eps * eps
	var ps []pair
	for i := range f.IDs {
		for j := i + 1; j < len(f.IDs); j++ {
			dx, dy := f.X[i]-f.X[j], f.Y[i]-f.Y[j]
			if d2 := dx*dx + dy*dy; d2 <= lim {
				ps = append(ps, pair{int32(i), int32(j), d2})
			}
		}
	}
	return ps
}

// Clusters returns the maximal density-connected sets of frame n for
// (e, m), each as ascending object IDs, in a deterministic order.
func (ix *Index) Clusters(n int, e float64, m int) [][]int {
	return clusters(ix.frames[n], ix.pairs[n], e, m)
}

func clusters(f Frame, pairs []pair, e float64, m int) [][]int {
	np := len(f.IDs)
	if np == 0 {
		return nil
	}
	e2 := e * e
	deg := make([]int, np)
	for i := range deg {
		deg[i] = 1 // a point is in its own neighbourhood
	}
	for _, p := range pairs {
		if p.d2 <= e2 {
			deg[p.i]++
			deg[p.j]++
		}
	}
	core := func(i int32) bool { return deg[i] >= m }
	parent := make([]int32, np)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, p := range pairs {
		if p.d2 <= e2 && core(p.i) && core(p.j) {
			a, b := find(p.i), find(p.j)
			if a != b {
				parent[a] = b
			}
		}
	}
	members := map[int32]map[int]bool{}
	join := func(root int32, i int32) {
		set := members[root]
		if set == nil {
			set = map[int]bool{}
			members[root] = set
		}
		set[f.IDs[i]] = true
	}
	for i := int32(0); i < int32(np); i++ {
		if core(i) {
			join(find(i), i)
		}
	}
	for _, p := range pairs {
		if p.d2 > e2 {
			continue
		}
		if core(p.i) && !core(p.j) {
			join(find(p.i), p.j)
		}
		if core(p.j) && !core(p.i) {
			join(find(p.j), p.i)
		}
	}
	out := make([][]int, 0, len(members))
	for _, set := range members {
		c := make([]int, 0, len(set))
		for id := range set {
			c = append(c, id)
		}
		sort.Ints(c)
		out = append(out, c)
	}
	sort.Slice(out, func(a, b int) bool { return lessInts(out[a], out[b]) })
	return out
}

// Convoys answers the convoy query (m, k, e) over the indexed frames.
// e must not exceed MaxEps. The per-frame clusters of each (e, m) are
// kept, so queries differing only in k share them.
func (ix *Index) Convoys(m int, k int64, e float64) []Convoy {
	if e > ix.maxEps {
		panic("oracle: e exceeds the index's MaxEps")
	}
	key := clusterKey{e, m}
	cs, ok := ix.memo[key]
	if !ok {
		cs = make([][][]int, len(ix.frames))
		for n := range ix.frames {
			cs[n] = ix.Clusters(n, e, m)
		}
		ix.memo[key] = cs
	}
	ch := newChain(m, k, ix.labels)
	for n, f := range ix.frames {
		ch.step(f.T, cs[n])
	}
	return ch.result()
}

// Query is one convoy query.
type Query struct {
	M int
	K int64
	E float64
}

// Stream answers several queries over frames produced one at a time, so
// that a long tick sequence never needs to be held whole. The answers are
// in the order of qs.
func Stream(labels []string, frames iter.Seq[Frame], qs []Query) [][]Convoy {
	maxE := 0.0
	chains := make([]*chain, len(qs))
	for n, q := range qs {
		maxE = max(maxE, q.E)
		chains[n] = newChain(q.M, q.K, labels)
	}
	for f := range frames {
		pairs := pairsWithin(f, maxE)
		perKey := map[clusterKey][][]int{}
		for n, q := range qs {
			key := clusterKey{q.E, q.M}
			cs, ok := perKey[key]
			if !ok {
				cs = clusters(f, pairs, q.E, q.M)
				perKey[key] = cs
			}
			chains[n].step(f.T, cs)
		}
	}
	out := make([][]Convoy, len(qs))
	for n, ch := range chains {
		out[n] = ch.result()
	}
	return out
}

// chain links one query's clusters tick by tick (the CMC procedure).
type chain struct {
	m      int
	k      int64
	labels []string
	live   []*cand
	found  []Convoy
	prevT  int64
	begun  bool
}

type cand struct {
	objs  []int
	start int64
}

func newChain(m int, k int64, labels []string) *chain {
	return &chain{m: m, k: k, labels: labels}
}

func (ch *chain) report(c *cand, end int64) {
	if end-c.start+1 >= ch.k {
		names := make([]string, len(c.objs))
		for i, id := range c.objs {
			names[i] = ch.labels[id]
		}
		sort.Strings(names)
		ch.found = append(ch.found, Convoy{Objects: names, Start: c.start, End: end})
	}
}

// step advances the candidates to tick t, whose clusters are given.
func (ch *chain) step(t int64, clusters [][]int) {
	if ch.begun && t != ch.prevT+1 {
		// A gap in the tick sequence ends every candidate.
		for _, c := range ch.live {
			ch.report(c, ch.prevT)
		}
		ch.live = nil
	}
	byKey := map[string]*cand{}
	var next []*cand
	add := func(objs []int, start int64) {
		key := intsKey(objs)
		if c, ok := byKey[key]; ok {
			c.start = min(c.start, start)
			return
		}
		c := &cand{objs: objs, start: start}
		byKey[key] = c
		next = append(next, c)
	}
	for _, v := range ch.live {
		whole := false
		for _, c := range clusters {
			in := intersect(v.objs, c)
			if len(in) < ch.m {
				continue
			}
			add(in, v.start)
			if len(in) == len(v.objs) {
				whole = true
			}
		}
		if !whole {
			ch.report(v, t-1)
		}
	}
	for _, c := range clusters {
		add(c, t)
	}
	ch.live = next
	ch.prevT, ch.begun = t, true
}

// result reports the candidates still alive and returns the canonical
// answer.
func (ch *chain) result() []Convoy {
	for _, c := range ch.live {
		ch.report(c, ch.prevT)
	}
	ch.live = nil
	return Canonical(ch.found)
}

// Convoys is a one-shot query over tracks.
func Convoys(tracks []Track, m int, k int64, e float64) []Convoy {
	frames, labels := Frames(tracks)
	return NewIndex(frames, labels, e).Convoys(m, k, e)
}

// Canonical drops duplicates and dominated convoys (objects a subset and
// interval inside another's) and sorts the rest by (start, end, objects).
func Canonical(cs []Convoy) []Convoy {
	seen := map[string]bool{}
	var uniq []Convoy
	for _, c := range cs {
		c.Objects = append([]string(nil), c.Objects...)
		sort.Strings(c.Objects)
		if k := c.Key(); !seen[k] {
			seen[k] = true
			uniq = append(uniq, c)
		}
	}
	var out []Convoy
	for i, c := range uniq {
		dominated := false
		for j, o := range uniq {
			if i != j && Contains(o, c) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key() < out[b].Key() })
	return out
}

// Contains reports whether a's objects and interval both contain b's.
// Both object lists are sorted.
func Contains(a, b Convoy) bool {
	if b.Start < a.Start || b.End > a.End || len(b.Objects) > len(a.Objects) {
		return false
	}
	i := 0
	for _, o := range b.Objects {
		for i < len(a.Objects) && a.Objects[i] < o {
			i++
		}
		if i == len(a.Objects) || a.Objects[i] != o {
			return false
		}
		i++
	}
	return true
}

func intersect(a, b []int) []int {
	var out []int
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func intsKey(ids []int) string {
	var b strings.Builder
	for _, id := range ids {
		b.WriteString(strconv.Itoa(id))
		b.WriteByte(',')
	}
	return b.String()
}

func lessInts(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
