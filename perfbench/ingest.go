package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/tsio"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/perfbench/oracle"
)

// ingest-wal layout: a Commute-shaped world (300 objects, about 10% move
// per tick, 3000 ticks) is pushed to one durable feed tick by tick,
// replayed end to end as often as the run needs: sequence tick g carries
// the world's tick g mod 3000 at tick lo+g, so at each wrap every object
// jumps back to where it started. The first ingestPrefill ticks are
// written untimed through a first server; a second server recovers them
// from the WAL (setup), takes one warm-up batch, and the timed phase
// pushes the following ticks in batches of ingestBatch.
const (
	ingestScale        = 1.0
	ingestSeed         = 7301
	ingestPrefill      = 1000
	ingestBatch        = 4
	ingestOpsPerSecond = 240.0
	ingestFeed         = "commute"
	ingestFsync        = wal.FsyncNever
)

func ingestWorld() profileInput {
	return generate("commute.csv", datagen.Commute(ingestScale, ingestSeed))
}

func ingestInputs() ([]encoded, error) { return encode([]profileInput{ingestWorld()}, csvBytes) }

// feedMonitor is one standing query on the feed.
type feedMonitor struct {
	id string
	p  core.Params
}

type ingestBench struct {
	dir      string
	monitors []feedMonitor
	lo       model.Tick
	worldRaw [][]byte // per world tick, the positions JSON-encoded
	labels   []string // by first appearance
	n        int      // timed operations
	nextDir  string   // the WAL copy the next setup recovers
	setups   int
	body     []byte // the last request body

	client   *http.Client
	srv      *loopback
	answers  []serve.TicksResponse
	respSize int // bytes of the last answer

	prefillEvents []serve.Event

	// traced runs: the replay's own cluster sources, monitors and log.
	rp *ingestReplay
}

// decodeWorld decodes the pre-encoded world ticks. Only the encoded
// ticks are kept through the timed phase, so that the resident set is
// mostly the server's; the checks and the traced replay decode them anew.
func (b *ingestBench) decodeWorld() ([][]wire.Position, error) {
	world := make([][]wire.Position, len(b.worldRaw))
	for w, raw := range b.worldRaw {
		if err := json.Unmarshal(raw, &world[w]); err != nil {
			return nil, fmt.Errorf("decode world tick %d: %w", w, err)
		}
	}
	return world, nil
}

// tick is sequence tick g of the decoded world.
func (b *ingestBench) tick(world [][]wire.Position, g int) wire.TickBatch {
	return wire.TickBatch{T: b.lo + model.Tick(g), Positions: world[g%len(world)]}
}

// opFirst is the first sequence tick of timed operation i (the warm-up
// batch is operation −1).
func opFirst(i int) int { return ingestPrefill + ingestBatch*(i+1) }

// encode builds the request pushing sequence ticks [g, g+ingestBatch), as
// json.Marshal of a wire.TicksRequest would, from the pre-encoded ticks.
func (b *ingestBench) encode(g int) []byte {
	out := append(b.body[:0], `{"ticks":[`...)
	for n := g; n < g+ingestBatch; n++ {
		if n > g {
			out = append(out, ',')
		}
		out = append(out, `{"t":`...)
		out = strconv.AppendInt(out, int64(b.lo)+int64(n), 10)
		out = append(out, `,"positions":`...)
		out = append(out, b.worldRaw[n%len(b.worldRaw)]...)
		out = append(out, '}')
	}
	b.body = append(out, "]}"...)
	return b.body
}

func makeIngest(seed int64, seconds int, dir string) (bench, error) {
	in := ingestWorld()
	p := in.profile
	// Three monitors on two clustering keys: the seed moves their k.
	rng := rand.New(rand.NewSource(seed))
	jit := func(k int64) int64 { return k + rng.Int63n(k/4+1) }
	b := &ingestBench{
		dir: dir,
		monitors: []feedMonitor{
			{serve.DefaultMonitorID, core.Params{M: p.M, K: jit(p.K), Eps: p.Eps}},
			{"long", core.Params{M: p.M, K: jit(2 * p.K), Eps: p.Eps}},
			{"wide", core.Params{M: p.M - 1, K: jit(p.K), Eps: p.Eps * 1.5}},
		},
		client: newClient(),
	}
	lo, hi, _ := in.db.TimeRange()
	b.lo = lo
	seen := map[string]bool{}
	for t := lo; t <= hi; t++ {
		ids, pts := in.db.SnapshotAt(t)
		ps := make([]wire.Position, len(ids))
		for n, id := range ids {
			ps[n] = wire.Position{ID: label(in.db.Traj(id)), X: pts[n].X, Y: pts[n].Y}
			if !seen[ps[n].ID] {
				seen[ps[n].ID] = true
				b.labels = append(b.labels, ps[n].ID)
			}
		}
		raw, err := json.Marshal(ps)
		if err != nil {
			return nil, err
		}
		b.worldRaw = append(b.worldRaw, raw)
	}
	b.n = rounds(seconds, ingestOpsPerSecond, 1)
	b.answers = make([]serve.TicksResponse, b.n)
	if err := b.prefill(); err != nil {
		return nil, fmt.Errorf("ingest-wal prefill: %w", err)
	}
	return b, b.nextCopy()
}

func (b *ingestBench) config(walDir string) serve.Config {
	return serve.Config{WALDir: walDir, WALFsync: ingestFsync, HistoryLimit: 1 << 20}
}

// prefill writes the first ticks through a first server and shuts it down
// gracefully, leaving its WAL behind.
func (b *ingestBench) prefill() error {
	b.srv = startServer(b.config(filepath.Join(b.dir, "prefill")), nil)
	defer func() { b.srv.close(); b.srv = nil }()
	m0 := b.monitors[0]
	spec := serve.FeedSpec{Name: ingestFeed, Params: wire.ParamsToJSON(m0.p)}
	if err := b.call(http.MethodPost, "/v1/feeds", spec, nil); err != nil {
		return err
	}
	for _, m := range b.monitors[1:] {
		ms := serve.MonitorSpec{ID: m.id, Params: wire.ParamsToJSON(m.p)}
		if err := b.call(http.MethodPost, "/v1/feeds/"+ingestFeed+"/monitors", ms, nil); err != nil {
			return err
		}
	}
	for g := 0; g < ingestPrefill; g += ingestBatch {
		if _, err := b.send(http.MethodPost, "/v1/feeds/"+ingestFeed+"/ticks", bytes.NewReader(b.encode(g)), nil); err != nil {
			return err
		}
	}
	var ev serve.EventsResponse
	if err := b.call(http.MethodGet, "/v1/feeds/"+ingestFeed+"/convoys?since=0", nil, &ev); err != nil {
		return err
	}
	b.prefillEvents = ev.Events
	return nil
}

// nextCopy copies the prefilled WAL for the next setup to recover.
func (b *ingestBench) nextCopy() error {
	b.setups++
	b.nextDir = filepath.Join(b.dir, "wal-"+strconv.Itoa(b.setups))
	return copyDir(b.nextDir, filepath.Join(b.dir, "prefill"))
}

// call sends one JSON request to the current server.
func (b *ingestBench) call(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(raw)
	}
	_, err := b.send(method, path, body, out)
	return err
}

func (b *ingestBench) send(method, path string, body io.Reader, out any) (int, error) {
	req, err := http.NewRequest(method, b.srv.ts.URL+path, body)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return len(raw), fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return len(raw), fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return len(raw), nil
}

// setup restarts a server over a copy of the prefilled WAL (recovery
// replays it) and pushes the warm-up batch.
func (b *ingestBench) setup() error {
	b.srv = startServer(b.config(b.nextDir), nil)
	var tr serve.TicksResponse
	if _, err := b.send(http.MethodPost, "/v1/feeds/"+ingestFeed+"/ticks", bytes.NewReader(b.encode(opFirst(-1))), &tr); err != nil {
		return err
	}
	if tr.Accepted != ingestBatch {
		return fmt.Errorf("warm-up batch: %d ticks accepted, want %d", tr.Accepted, ingestBatch)
	}
	return nil
}

func (b *ingestBench) teardown() {
	if b.srv != nil {
		b.srv.close()
		b.srv = nil
	}
	b.client.CloseIdleConnections()
	if err := b.nextCopy(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: copy WAL:", err)
	}
}

func (b *ingestBench) close() {
	if b.srv != nil {
		b.srv.close()
		b.srv = nil
	}
	if b.rp != nil {
		b.rp.log.Close()
	}
	b.client.CloseIdleConnections()
}

func (b *ingestBench) ops() int { return b.n }

// prepare builds operation i's request body.
func (b *ingestBench) prepare(i int) error {
	b.encode(opFirst(i))
	return nil
}

func (b *ingestBench) do(i int, traced bool) error {
	var tr serve.TicksResponse
	n, err := b.send(http.MethodPost, "/v1/feeds/"+ingestFeed+"/ticks", bytes.NewReader(b.body), &tr)
	if err != nil {
		return err
	}
	if tr.Accepted != ingestBatch {
		return fmt.Errorf("%d ticks accepted, want %d", tr.Accepted, ingestBatch)
	}
	b.answers[i] = tr
	b.respSize = n
	return nil
}

// check compares every monitor's convoys over the whole tick sequence —
// closed before the restart, closed after it, and drained at the end —
// with the oracle's answer.
func (b *ingestBench) check() ([]int, error) {
	var ev serve.EventsResponse
	if err := b.call(http.MethodGet, "/v1/feeds/"+ingestFeed+"/convoys?since=0", nil, &ev); err != nil {
		return nil, err
	}
	got := map[string][]oracle.Convoy{}
	for _, e := range ev.Events {
		got[e.Monitor] = append(got[e.Monitor], answerConvoys([]wire.ConvoyJSON{e.Convoy})...)
	}
	for _, m := range b.monitors {
		var mc serve.MonitorCloseResponse
		if err := b.call(http.MethodDelete, "/v1/feeds/"+ingestFeed+"/monitors/"+url.PathEscape(m.id), nil, &mc); err != nil {
			return nil, err
		}
		got[m.id] = append(got[m.id], answerConvoys(mc.Drained)...)
	}
	qs := make([]oracle.Query, len(b.monitors))
	for n, m := range b.monitors {
		qs[n] = oracle.Query{M: m.p.M, K: m.p.K, E: m.p.Eps}
	}
	world, err := b.decodeWorld()
	if err != nil {
		return nil, err
	}
	wants := oracle.Stream(b.labels, b.frames(world, opFirst(b.n)), qs)
	wrongOps := map[int]bool{}
	blame := func(c oracle.Convoy) {
		// The operation that carried the tick closing the convoy.
		i := (int(c.End+1-b.lo)-ingestPrefill)/ingestBatch - 1
		wrongOps[max(0, min(i, b.n-1))] = true
	}
	for n, m := range b.monitors {
		want := wants[n]
		have := oracle.Canonical(got[m.id])
		wk, hk := keySet(want), keySet(have)
		for _, c := range want {
			if !hk[c.Key()] {
				logf("ingest-wal monitor %s: missing convoy %s", m.id, c.Key())
				blame(c)
			}
		}
		for _, c := range have {
			if !wk[c.Key()] {
				logf("ingest-wal monitor %s: extra convoy %s", m.id, c.Key())
				blame(c)
			}
		}
		// A convoy reported twice (say, emitted again by recovery's
		// replay) or contained in another reported one is wrong too.
		// Canonical sorts the members, as the keys in hk are.
		key := func(c oracle.Convoy) string { return oracle.Canonical([]oracle.Convoy{c})[0].Key() }
		times := map[string]int{}
		for _, c := range got[m.id] {
			times[key(c)]++
		}
		for _, c := range got[m.id] {
			if k := key(c); times[k] > 1 || !hk[k] {
				logf("ingest-wal monitor %s: convoy %s is reported %d times or contained in another", m.id, k, times[k])
				blame(c)
			}
		}
	}
	// Convoys closed before the restart must survive it.
	after := map[string]bool{}
	for _, e := range ev.Events {
		after[e.Monitor+"/"+answerConvoys([]wire.ConvoyJSON{e.Convoy})[0].Key()] = true
	}
	for _, e := range b.prefillEvents {
		if !after[e.Monitor+"/"+answerConvoys([]wire.ConvoyJSON{e.Convoy})[0].Key()] {
			return nil, fmt.Errorf("ingest-wal: convoy %v of monitor %s closed before the restart is gone after it", e.Convoy, e.Monitor)
		}
	}
	var wrong []int
	for i := range wrongOps {
		wrong = append(wrong, i)
	}
	sort.Ints(wrong)
	return wrong, nil
}

func keySet(cs []oracle.Convoy) map[string]bool {
	out := make(map[string]bool, len(cs))
	for _, c := range cs {
		out[c.Key()] = true
	}
	return out
}

// frames yields the oracle's view of the first n sequence ticks: exactly
// the positions pushed.
func (b *ingestBench) frames(world [][]wire.Position, n int) iter.Seq[oracle.Frame] {
	ids := map[string]int{}
	for i, l := range b.labels {
		ids[l] = i
	}
	return func(yield func(oracle.Frame) bool) {
		for g := 0; g < n; g++ {
			tb := b.tick(world, g)
			f := oracle.Frame{T: tb.T, IDs: make([]int, len(tb.Positions)),
				X: make([]float64, len(tb.Positions)), Y: make([]float64, len(tb.Positions))}
			for i, p := range tb.Positions {
				f.IDs[i], f.X[i], f.Y[i] = ids[p.ID], p.X, p.Y
			}
			if !yield(f) {
				return
			}
		}
	}
}

// ingestReplay is a traced run's copy of the feed's layers: its own
// cluster sources and monitors fed the same ticks, and a scratch WAL on
// the same filesystem as the feed's.
type ingestReplay struct {
	ids     map[string]model.ObjectID
	sources map[core.ClusterKey]*core.ClusterSource
	mons    []*core.Monitor
	keys    []core.ClusterKey
	log     *wal.Log
}

func (b *ingestBench) newReplay() (*ingestReplay, error) {
	rp := &ingestReplay{ids: map[string]model.ObjectID{}, sources: map[core.ClusterKey]*core.ClusterSource{}}
	for _, m := range b.monitors {
		mon, err := core.NewMonitor(m.p)
		if err != nil {
			return nil, err
		}
		key := m.p.ClusterKey().Canonical()
		if _, ok := rp.sources[key]; !ok {
			src, err := core.NewClusterSource(key)
			if err != nil {
				return nil, err
			}
			rp.sources[key] = src
		}
		rp.mons = append(rp.mons, mon)
		rp.keys = append(rp.keys, key)
	}
	var err error
	rp.log, err = wal.Create(filepath.Join(b.dir, "scratch-wal"), []byte("{}"), wal.Options{Fsync: ingestFsync})
	if err != nil {
		return nil, err
	}
	// Bring the replay to the feed's state before the timed phase.
	world, err := b.decodeWorld()
	if err != nil {
		return nil, err
	}
	untimed := newLayers()
	for g := 0; g < opFirst(0); g++ {
		if _, err := rp.advance(b.tick(world, g), untimed); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

// advance pushes one tick through the replay's layers, records the
// per-tick spans in l and returns the time they cover.
func (rp *ingestReplay) advance(tb wire.TickBatch, l *layers) (covered float64, err error) {
	ids := make([]model.ObjectID, len(tb.Positions))
	pts := make([]geom.Point, len(tb.Positions))
	blk := tsio.TickBlock{T: tb.T, Positions: make([]tsio.TickPosition, len(tb.Positions))}
	for n, p := range tb.Positions {
		id, ok := rp.ids[p.ID]
		if !ok {
			id = len(rp.ids)
			rp.ids[p.ID] = id
		}
		ids[n], pts[n] = id, geom.Pt(p.X, p.Y)
		blk.Positions[n] = tsio.TickPosition{Label: p.ID, X: p.X, Y: p.Y}
	}
	before := rp.log.Status().AppendedBytes
	appendMS, _ := l.measure(func() { err = rp.log.Append(blk) })
	if err != nil {
		return 0, err
	}
	appended := rp.log.Status().AppendedBytes - before
	clusters := map[core.ClusterKey][][]model.ObjectID{}
	clusterMS, _ := l.measure(func() {
		for key, src := range rp.sources {
			clusters[key] = src.Cluster(core.TickSnapshot{T: tb.T, IDs: ids, Pts: pts})
		}
	})
	chainMS, _ := l.measure(func() {
		for n, mon := range rp.mons {
			if _, err = mon.AdvanceClusters(tb.T, clusters[rp.keys[n]]); err != nil {
				return
			}
		}
	})
	l.add("wal.append_us_per_tick", appendMS*1000)
	l.add("wal.bytes_per_tick", float64(appended))
	l.add("core.cluster_us_per_tick", clusterMS*1000)
	l.add("core.chain_us_per_tick", chainMS*1000)
	return appendMS + clusterMS + chainMS, err
}

func (b *ingestBench) replay(i int, l *layers) error {
	if b.rp == nil {
		var err error
		if b.rp, err = b.newReplay(); err != nil {
			return err
		}
	}
	var req wire.TicksRequest
	var err error
	decMS, _ := l.measure(func() { err = json.Unmarshal(b.body, &req) })
	if err != nil {
		return err
	}
	l.add("wire.ticks_decode_ms", decMS)
	covered := decMS
	for _, tb := range req.Ticks {
		c, err := b.rp.advance(tb, l)
		if err != nil {
			return err
		}
		covered += c
	}
	encMS, _ := l.measure(func() { _, err = json.Marshal(b.answers[i]) })
	if err != nil {
		return err
	}
	l.add("wire.encode_ms", encMS)
	l.add("wire.response_kb", float64(b.respSize)/1024)
	l.opDone(covered)
	return nil
}

// finish records the feed's own counters and times recovery's log replay.
func (b *ingestBench) finish(l *layers) error {
	var st serve.FeedStatus
	if err := b.call(http.MethodGet, "/v1/feeds/"+ingestFeed, nil, &st); err != nil {
		return err
	}
	if st.Ticks > 0 {
		per := float64(ingestBatch) / float64(st.Ticks)
		l.add("serve.passes_per_tick", float64(st.ClusterPasses)/float64(st.Ticks))
		l.add("serve.naive_passes_per_tick", float64(len(st.Monitors)))
		l.add("increment.passes_full", float64(st.ClusterPassesFull)*per)
		l.add("increment.passes_incremental", float64(st.ClusterPassesIncremental)*per)
	}
	if st.ClusterPasses > 0 {
		l.add("increment.objects_reclustered", float64(st.ObjectsReclustered)/float64(st.ClusterPasses))
	}
	l.add("increment.reuse_ratio", st.ReuseRatio)
	dir := filepath.Join(b.dir, "replay-wal")
	if err := copyDir(dir, filepath.Join(b.dir, "prefill")); err != nil {
		return err
	}
	var err error
	replayMS, _ := l.measure(func() {
		var lg *wal.Log
		lg, _, err = wal.Open(filepath.Join(dir, "feeds", url.PathEscape(ingestFeed)), wal.Options{Fsync: ingestFsync})
		if err != nil {
			return
		}
		defer lg.Close()
		n := 0
		err = lg.Replay(func(tsio.TickBlock) error { n++; return nil })
		if err == nil && n != ingestPrefill {
			err = fmt.Errorf("replayed %d ticks, want %d", n, ingestPrefill)
		}
	})
	l.add("wal.replay_ms", replayMS)
	return err
}
