package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/simplify"
	"repro/internal/tsio"
	"repro/internal/wire"
	"repro/perfbench/oracle"
)

// Operation counts per second of --seconds, calibrated so that a run's
// timed phase takes about --seconds on a 2-core x86-64 box at the commit
// that introduced the benchmark. A run always executes whole rounds.
const (
	cmcOpsPerSecond     = 13.0
	cutsOpsPerSecond    = 17.0
	shardedOpsPerSecond = 6.5
)

// rounds sizes a run: enough whole rounds of perRound operations to fill
// seconds at the nominal rate.
func rounds(seconds int, opsPerSecond float64, perRound int) int {
	r := int(float64(seconds)*opsPerSecond/float64(perRound) + 0.5)
	return max(r, 1)
}

// queryOp is one POST /v1/query.
type queryOp struct {
	db     int // index into queryBench.dbs
	m      int
	k      int64
	e      float64
	algo   string
	delta  float64
	lambda int64
	// body is the upload; dx, dy the shift applied to the base database's
	// coordinates to make it (query-cuts only, where prepare builds body
	// just before the request).
	body   []byte
	dx, dy float64
}

func (op queryOp) url(base string, explain bool) string {
	q := url.Values{}
	q.Set("m", strconv.Itoa(op.m))
	q.Set("k", strconv.FormatInt(op.k, 10))
	q.Set("e", strconv.FormatFloat(op.e, 'g', -1, 64))
	q.Set("algo", op.algo)
	if op.algo != wire.AlgoCMC {
		q.Set("delta", strconv.FormatFloat(op.delta, 'g', -1, 64))
		q.Set("lambda", strconv.FormatInt(op.lambda, 10))
	}
	if explain {
		q.Set("explain", "true")
	}
	return base + "/v1/query?" + q.Encode()
}

// cmcInputs are the two fixed databases of query-cmc and sharded: one
// Truck-shaped (dense shared routes) and one Taxi-shaped (uniform spread,
// irregular sampling).
func cmcBases() []profileInput {
	return []profileInput{
		generate("truck.csv", datagen.Truck(0.2, 7001)),
		generate("taxi.csv", datagen.Taxi(0.3, 7002)),
	}
}

func cmcInputs() ([]encoded, error) { return encode(cmcBases(), csvBytes) }

// cmcSchedule is the query-cmc request sequence: per round, every database
// with every m in {2,3,4} and e at 0.8, 1 and 1.25 times the profile's
// Table 3 value, in a seeded order. k starts at the profile's k and grows
// by round (plus a seeded 0–2), so no (m, k, e) repeats and every request
// misses the answer cache. The warm-up request uses k−1, which no timed
// request uses.
func cmcSchedule(bases []profileInput, seed int64, nRounds int) (ops []queryOp, warm queryOp) {
	rng := rand.New(rand.NewSource(seed))
	mk := func(db, m int, k int64, e float64) queryOp {
		return queryOp{db: db, m: m, k: k, e: e, algo: wire.AlgoCMC}
	}
	for r := 0; r < nRounds; r++ {
		var round []queryOp
		for d, in := range bases {
			p := in.profile
			for _, m := range []int{2, 3, 4} {
				for _, f := range []float64{0.8, 1, 1.25} {
					round = append(round, mk(d, m, p.K+3*int64(r)+rng.Int63n(3), p.Eps*f))
				}
			}
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		ops = append(ops, round...)
	}
	p := bases[0].profile
	return ops, mk(0, p.M, p.K-1, p.Eps)
}

const cmcPerRound = 18

// cutsBases are the base databases of query-cuts: two Car-shaped and two
// Taxi-shaped, each at scale 0.05.
func cutsBases() []profileInput {
	return []profileInput{
		generate("car-0.ctb", datagen.Car(0.05, 7101)),
		generate("taxi-0.ctb", datagen.Taxi(0.05, 7201)),
		generate("car-1.ctb", datagen.Car(0.05, 7102)),
		generate("taxi-1.ctb", datagen.Taxi(0.05, 7202)),
	}
}

func cutsInputs() ([]encoded, error) { return encode(cutsBases(), ctbBytes) }

// cutsRotation is one query-cuts round: (base, algorithm) pairs. Every
// base runs every CuTS variant once per round.
var cutsRotation = []struct {
	base int
	algo string
}{
	{0, wire.AlgoCuTS}, {1, wire.AlgoCuTSPlus}, {2, wire.AlgoCuTSStar},
	{3, wire.AlgoCuTS}, {0, wire.AlgoCuTSPlus}, {1, wire.AlgoCuTSStar},
	{2, wire.AlgoCuTS}, {3, wire.AlgoCuTSPlus}, {0, wire.AlgoCuTSStar},
	{1, wire.AlgoCuTS}, {2, wire.AlgoCuTSPlus}, {3, wire.AlgoCuTSStar},
}

// cutsSchedule is the query-cuts request sequence. Each request uploads a
// never-seen CTB database: its base shifted by a seeded offset, which
// changes every byte of the coordinates but neither the geometry the
// algorithms see nor their work. Each profile's Table 3 (m, k, e) and δ/λ
// ride in the request.
func cutsSchedule(bases []profileInput, seed int64, nRounds int) (ops []queryOp, warm queryOp) {
	rng := rand.New(rand.NewSource(seed))
	shifted := func(base int, algo string) queryOp {
		p := bases[base].profile
		return queryOp{db: base, m: p.M, k: p.K, e: p.Eps, algo: algo, delta: p.Delta, lambda: p.Lambda,
			dx: 1000 + rng.Float64()*1e5, dy: 1000 + rng.Float64()*1e5}
	}
	for r := 0; r < nRounds; r++ {
		for _, rot := range cutsRotation {
			ops = append(ops, shifted(rot.base, rot.algo))
		}
	}
	return ops, shifted(0, wire.AlgoCuTSStar)
}

// upload encodes op's shifted database as CTB into b.buf, through one
// reusable shifted copy per base, and returns the bytes, which stay valid
// until the next call.
func (b *queryBench) upload(op queryOp) ([]byte, error) {
	if b.shifted == nil {
		b.shifted = make([]*model.DB, len(b.dbs))
	}
	base := b.dbs[op.db].db
	db := b.shifted[op.db]
	if db == nil {
		db = copyDB(base)
		b.shifted[op.db] = db
	}
	for n, tr := range db.Trajectories() {
		for i, s := range base.Traj(n).Samples {
			tr.Samples[i].P.X = s.P.X + op.dx
			tr.Samples[i].P.Y = s.P.Y + op.dy
		}
	}
	b.buf.Reset()
	err := tsio.WriteBinary(&b.buf, db)
	return b.buf.Bytes(), err
}

// copyDB returns a copy of db with samples of its own.
func copyDB(db *model.DB) *model.DB {
	out := model.NewDB()
	for _, tr := range db.Trajectories() {
		out.Add(&model.Trajectory{Label: label(tr), Samples: append([]model.Sample(nil), tr.Samples...)})
	}
	return out
}

// queryBench runs query-cmc, query-cuts and sharded.
type queryBench struct {
	name    string
	dbs     []profileInput
	sched   []queryOp
	warm    queryOp
	sharded bool

	client   *http.Client
	servers  []*loopback // [coordinator, shard, shard] or [local]
	counters []*shardCounter

	answers  []serve.QueryResponse
	respSize []int
	warmAns  serve.QueryResponse

	oracleIdx map[int]*oracle.Index

	// query-cuts: one shifted copy per base and the upload buffer.
	shifted []*model.DB
	buf     bytes.Buffer
}

func makeQueryCMC(seed int64, seconds int, dir string) (bench, error) {
	return newCMCBench("query-cmc", seed, rounds(seconds, cmcOpsPerSecond, cmcPerRound), false)
}

func makeSharded(seed int64, seconds int, dir string) (bench, error) {
	return newCMCBench("sharded", seed, rounds(seconds, shardedOpsPerSecond, cmcPerRound), true)
}

func newCMCBench(name string, seed int64, nRounds int, sharded bool) (bench, error) {
	in, err := cmcInputs()
	if err != nil {
		return nil, err
	}
	b := &queryBench{name: name, sharded: sharded, client: newClient()}
	for _, e := range in {
		b.dbs = append(b.dbs, e.profileInput)
	}
	b.sched, b.warm = cmcSchedule(b.dbs, seed, nRounds)
	for i := range b.sched {
		b.sched[i].body = in[b.sched[i].db].data
	}
	b.warm.body = in[b.warm.db].data
	b.answers = make([]serve.QueryResponse, len(b.sched))
	b.respSize = make([]int, len(b.sched))
	return b, nil
}

func makeQueryCuts(seed int64, seconds int, dir string) (bench, error) {
	b := &queryBench{name: "query-cuts", dbs: cutsBases(), client: newClient()}
	b.sched, b.warm = cutsSchedule(b.dbs, seed, rounds(seconds, cutsOpsPerSecond, len(cutsRotation)))
	seen := map[string]bool{}
	for i, op := range b.sched {
		body, err := b.upload(op)
		if err != nil {
			return nil, err
		}
		d := digest(body)
		if seen[d] {
			return nil, fmt.Errorf("query-cuts: upload %d repeats an earlier one", i)
		}
		seen[d] = true
	}
	warm, err := b.upload(b.warm)
	if err != nil {
		return nil, err
	}
	b.warm.body = bytes.Clone(warm)
	b.answers = make([]serve.QueryResponse, len(b.sched))
	b.respSize = make([]int, len(b.sched))
	return b, nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
}

// loopback is one serve.Server behind a loopback HTTP listener.
type loopback struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startServer(cfg serve.Config, wrap func(http.Handler) http.Handler) *loopback {
	srv := serve.New(cfg)
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	return &loopback{srv: srv, ts: httptest.NewServer(h)}
}

func (l *loopback) close() {
	l.ts.Close()
	l.srv.Close()
}

func (b *queryBench) setup() error {
	if b.sharded {
		b.counters = []*shardCounter{{}, {}}
		s0 := startServer(serve.Config{ShardMode: true}, b.counters[0].wrap)
		s1 := startServer(serve.Config{ShardMode: true}, b.counters[1].wrap)
		coord := startServer(serve.Config{Shards: []string{s0.ts.URL, s1.ts.URL}}, nil)
		b.servers = []*loopback{coord, s0, s1}
	} else {
		b.servers = []*loopback{startServer(serve.Config{}, nil)}
	}
	ans, _, err := b.post(b.warm, false)
	b.warmAns = ans
	return err
}

func (b *queryBench) teardown() {
	for _, s := range b.servers {
		s.close()
	}
	b.servers = nil
	b.client.CloseIdleConnections()
}

func (b *queryBench) close() { b.teardown() }

func (b *queryBench) ops() int { return len(b.sched) }

// post sends one query to the front server and decodes the answer.
func (b *queryBench) post(op queryOp, explain bool) (serve.QueryResponse, int, error) {
	var out serve.QueryResponse
	resp, err := b.client.Post(op.url(b.servers[0].ts.URL, explain), "application/octet-stream", bytes.NewReader(op.body))
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, len(raw), fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return out, len(raw), fmt.Errorf("decode answer: %w", err)
	}
	return out, len(raw), nil
}

// prepare builds a query-cuts upload just before its request, into one
// reused buffer, so that the resident set holds one upload rather than the
// whole run's. query-cmc and sharded send fixed uploads.
func (b *queryBench) prepare(i int) error {
	op := &b.sched[i]
	if op.dx == 0 && op.dy == 0 {
		return nil
	}
	if i > 0 {
		b.sched[i-1].body = nil
	}
	var err error
	op.body, err = b.upload(*op)
	return err
}

func (b *queryBench) do(i int, traced bool) error {
	for _, c := range b.counters {
		c.reset(traced)
	}
	ans, n, err := b.post(b.sched[i], traced)
	b.answers[i], b.respSize[i] = ans, n
	return err
}

// want is the oracle's answer to op.
func (b *queryBench) want(op queryOp) []oracle.Convoy {
	if op.dx != 0 || op.dy != 0 {
		return oracle.Convoys(tracks(b.dbs[op.db].db, op.dx, op.dy), op.m, op.k, op.e)
	}
	if b.oracleIdx == nil {
		b.oracleIdx = map[int]*oracle.Index{}
	}
	ix, ok := b.oracleIdx[op.db]
	if !ok {
		maxE := 0.0
		for _, o := range append([]queryOp{b.warm}, b.sched...) {
			if o.db == op.db {
				maxE = max(maxE, o.e)
			}
		}
		frames, labels := oracle.Frames(tracks(b.dbs[op.db].db, 0, 0))
		ix = oracle.NewIndex(frames, labels, maxE)
		b.oracleIdx[op.db] = ix
	}
	return ix.Convoys(op.m, op.k, op.e)
}

// answerConvoys converts a wire answer for comparison with the oracle.
func answerConvoys(cs []wire.ConvoyJSON) []oracle.Convoy {
	out := make([]oracle.Convoy, len(cs))
	for i, c := range cs {
		out[i] = oracle.Convoy{Objects: append([]string(nil), c.Objects...), Start: c.Start, End: c.End}
	}
	return out
}

// sameAnswer reports whether got (as answered) equals the canonical want,
// and whether got contains one convoy inside another.
func sameAnswer(got, want []oracle.Convoy) (equal, nested bool) {
	canon := oracle.Canonical(got)
	nested = len(canon) != len(got)
	if len(canon) != len(want) {
		return false, nested
	}
	for i := range canon {
		if canon[i].Key() != want[i].Key() {
			return false, nested
		}
	}
	return true, nested
}

func (b *queryBench) check() ([]int, error) {
	if eq, _ := sameAnswer(answerConvoys(b.warmAns.Convoys), b.want(b.warm)); !eq {
		return nil, fmt.Errorf("%s: the warm-up answer differs from the oracle's", b.name)
	}
	var local []serve.QueryResponse
	if b.sharded {
		var err error
		if local, err = b.localAnswers(); err != nil {
			return nil, err
		}
	}
	var wrong []int
	for i, op := range b.sched {
		ans := b.answers[i]
		if ans.Digest == "" {
			continue // the request failed; already counted
		}
		ok := true
		if ans.Cache != "miss" {
			logf("%s op %d: cache %q, want miss", b.name, i, ans.Cache)
			ok = false
		}
		eq, nested := sameAnswer(answerConvoys(ans.Convoys), b.want(op))
		if !eq {
			logf("%s op %d (%s m=%d k=%d e=%g): answer differs from the oracle's", b.name, i, op.algo, op.m, op.k, op.e)
			ok = false
		}
		if nested {
			logf("%s op %d: a reported convoy is contained in another", b.name, i)
			ok = false
		}
		if b.sharded {
			if ans.Shards != 2 {
				logf("%s op %d: merged %d shard answers, want 2", b.name, i, ans.Shards)
				ok = false
			}
			if i < len(local) && !sameJSON(ans.Convoys, local[i].Convoys) {
				logf("%s op %d: sharded answer differs from the local answer", b.name, i)
				ok = false
			}
		}
		if !ok {
			wrong = append(wrong, i)
		}
	}
	return wrong, nil
}

// localAnswers answers the first round of the schedule on a single-node
// server, for comparison with the coordinator's answers.
func (b *queryBench) localAnswers() ([]serve.QueryResponse, error) {
	loc := startServer(serve.Config{}, nil)
	defer loc.close()
	front := b.servers
	b.servers = []*loopback{loc}
	defer func() { b.servers = front }()
	n := min(cmcPerRound, len(b.sched))
	out := make([]serve.QueryResponse, n)
	for i := 0; i < n; i++ {
		ans, _, err := b.post(b.sched[i], false)
		if err != nil {
			return nil, fmt.Errorf("local answer %d: %w", i, err)
		}
		out[i] = ans
	}
	return out, nil
}

func sameJSON(a, b []wire.ConvoyJSON) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}

func parseUpload(data []byte) (*model.DB, error) {
	if bytes.HasPrefix(data, []byte("CTB1")) {
		return tsio.ReadBinary(bytes.NewReader(data))
	}
	return tsio.ReadCSV(bytes.NewReader(data))
}

// replay re-runs operation i through the layers' public functions.
func (b *queryBench) replay(i int, l *layers) error {
	op, ans := b.sched[i], b.answers[i]
	var db *model.DB
	var err error
	parseMS, parseAllocs := l.measure(func() { db, err = parseUpload(op.body) })
	if err != nil {
		return err
	}
	l.add("tsio.parse_ms", parseMS)
	l.add("tsio.parse_allocs", parseAllocs.objects)
	l.add("tsio.upload_kb", float64(len(op.body))/1024)
	lo, hi, _ := db.TimeRange()
	seen := 0
	snapMS, _ := l.measure(func() {
		for t := lo; t <= hi; t++ {
			ids, _ := db.SnapshotAt(t)
			seen += len(ids)
		}
	})
	l.add("model.snapshot_ms", snapMS)

	p := core.Params{M: op.m, K: op.k, Eps: op.e}
	isCMC, variant, err := wire.ParseAlgo(op.algo)
	if err != nil {
		return err
	}
	opts := []core.Option{core.WithParams(p)}
	if isCMC {
		opts = append(opts, core.WithCMC())
	} else {
		opts = append(opts, core.WithVariant(variant), core.WithDelta(op.delta), core.WithLambda(op.lambda))
	}
	// A coordinator's shards each mine one window of the range.
	windows := []core.Window{{Lo: lo, Hi: hi}}
	if b.sharded {
		windows = core.PartitionWindows(lo, hi, op.k, len(b.counters))
	}
	// st sums the windows' pass counters; the CuTS fields come from the
	// one window a local query has.
	var st core.Stats
	var runMS float64
	var runAllocs allocs
	var found int
	for n, w := range windows {
		wdb := db
		if b.sharded {
			wdb, _ = core.SliceTime(db, w.Lo, w.Hi)
		}
		var ws core.Stats
		var res core.Result
		ms, a := l.measure(func() { res, err = core.NewQuery(append(opts, core.WithStats(&ws))...).Run(context.Background(), wdb) })
		if err != nil {
			return err
		}
		runMS += ms
		runAllocs.objects += a.objects
		runAllocs.bytes += a.bytes
		found += len(res)
		if n == 0 {
			st = ws
			continue
		}
		st.ClusterPasses += ws.ClusterPasses
		st.ClusterPassesFull += ws.ClusterPassesFull
		st.ClusterPassesIncremental += ws.ClusterPassesIncremental
		st.ObjectsReclustered += ws.ObjectsReclustered
	}
	l.add("core.run_ms", runMS)
	l.add("core.run_allocs", runAllocs.objects)
	l.add("core.run_alloc_mb", runAllocs.bytes/(1<<20))
	l.add("core.cluster_passes", float64(st.ClusterPasses))
	if isCMC {
		l.add("increment.passes_full", float64(st.ClusterPassesFull))
		l.add("increment.passes_incremental", float64(st.ClusterPassesIncremental))
		if st.ClusterPasses > 0 {
			l.add("increment.objects_reclustered", float64(st.ObjectsReclustered)/float64(st.ClusterPasses))
		}
		if seen > 0 && !b.sharded {
			l.add("increment.reuse_ratio", 1-float64(st.ObjectsReclustered)/float64(seen))
		}
	} else {
		l.add("core.filter_ms", ms(st.FilterTime))
		l.add("core.refine_ms", ms(st.RefineTime))
		l.add("core.candidates", float64(st.NumCandidates))
		l.add("core.refine_units", st.RefineUnits)
		if st.NumCandidates > 0 {
			l.add("core.refine_yield", float64(found)/float64(st.NumCandidates))
		}
		var sts []*simplify.Trajectory
		simpMS, _ := l.measure(func() { sts = simplify.SimplifyAll(db, st.Delta, variant.SimplifyMethod()) })
		l.add("simplify.ms", simpMS)
		kept, total := 0, 0
		for n, s := range sts {
			kept += s.Len()
			total += db.Traj(n).Len()
		}
		l.add("simplify.vertex_kept_ratio", float64(kept)/float64(total))
	}
	if ex := ans.Explain; ex != nil {
		for _, sg := range ex.Stages {
			if sg.Name == "scan" {
				l.add("core.scan_ms", sg.DurationMS)
				l.add("core.cluster_ms", attrFloat(sg.Attrs, "cluster_ms"))
				l.add("core.chain_ms", attrFloat(sg.Attrs, "chain_ms"))
			}
		}
	}
	encMS, _ := l.measure(func() { _, err = json.Marshal(ans) })
	if err != nil {
		return err
	}
	l.add("wire.encode_ms", encMS)
	l.add("wire.response_kb", float64(b.respSize[i])/1024)

	covered := parseMS + runMS + encMS
	if b.sharded {
		l.add("tsio.parses_per_query", float64(1+len(b.counters)))
		mergeMS, shardMax, err := b.replayShards(l, db, windows, p)
		if err != nil {
			return err
		}
		covered = parseMS + shardMax + mergeMS + encMS
	} else {
		l.add("tsio.parses_per_query", 1)
	}
	l.opDone(covered)
	return nil
}

// replayShards records the shard RPC figures of the last operation and
// re-runs the coordinator's merge over the captured partial answers.
func (b *queryBench) replayShards(l *layers, db *model.DB, windows []core.Window, p core.Params) (mergeMS, shardMax float64, err error) {
	calls, kb, sum := 0, 0.0, 0.0
	parts := make([][]wire.ConvoyJSON, len(windows))
	for n, c := range b.counters {
		c.mu.Lock()
		calls += c.calls
		kb += float64(c.bytesIn+c.bytesOut) / 1024
		for _, d := range c.busy {
			sum += d
			shardMax = max(shardMax, d)
		}
		bodies := c.bodies
		c.mu.Unlock()
		if len(bodies) != 1 {
			return 0, 0, fmt.Errorf("shard %d answered %d calls, want 1", n, len(bodies))
		}
		var sr wire.ShardQueryResponse
		if err := json.Unmarshal(bodies[0], &sr); err != nil {
			return 0, 0, fmt.Errorf("decode shard answer: %w", err)
		}
		parts[n] = sr.Convoys
	}
	l.add("dist.rpc_calls_per_query", float64(calls))
	l.add("dist.rpc_kb_per_query", kb)
	l.add("dist.shard_ms_max", shardMax)
	l.add("dist.shard_ms_sum", sum)
	named := func(id model.ObjectID) string { return label(db.Traj(id)) }
	index := make(map[string]model.ObjectID, db.Len())
	for id := db.Len() - 1; id >= 0; id-- {
		index[named(id)] = id
	}
	mergeMS, _ = l.measure(func() {
		_, err = dist.Merge(windows, parts, p, func(s string) (model.ObjectID, bool) { id, ok := index[s]; return id, ok }, named)
	})
	l.add("dist.merge_ms", mergeMS)
	return mergeMS, shardMax, err
}

func (b *queryBench) finish(l *layers) error { return nil }

func attrFloat(attrs map[string]string, key string) float64 {
	v, _ := strconv.ParseFloat(attrs[key], 64)
	return v
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// shardCounter wraps one shard's handler: it counts RPCs and their bytes,
// times each call, and in traced runs keeps the answer bodies.
type shardCounter struct {
	mu       sync.Mutex
	capture  bool
	calls    int
	bytesIn  int64
	bytesOut int64
	busy     []float64 // ms per call
	bodies   [][]byte
}

func (c *shardCounter) reset(capture bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capture, c.calls, c.bytesIn, c.bytesOut, c.busy, c.bodies = capture, 0, 0, 0, nil, nil
}

func (c *shardCounter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		c.mu.Lock()
		cw.capture = c.capture
		c.mu.Unlock()
		h.ServeHTTP(cw, r)
		d := time.Since(t0)
		c.mu.Lock()
		defer c.mu.Unlock()
		c.calls++
		c.bytesIn += r.ContentLength
		c.bytesOut += cw.n
		c.busy = append(c.busy, ms(d))
		if cw.capture {
			c.bodies = append(c.bodies, cw.buf.Bytes())
		}
	})
}

type countingWriter struct {
	http.ResponseWriter
	n       int64
	capture bool
	buf     bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	if w.capture {
		w.buf.Write(p)
	}
	return w.ResponseWriter.Write(p)
}
