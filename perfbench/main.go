// Command perfbench is the repository's end-to-end benchmark. It serves
// the convoyd handler (internal/serve) over loopback HTTP inside its own
// process, drives one named workload from a seed as a closed loop with one
// client, checks every answer against an independent convoy oracle
// (package oracle) and prints one JSON result line.
//
//	perfbench --workload query-cmc --seed 1 --seconds 20 --trace 0
//	perfbench digests                        # print the pinned input digests
//	perfbench steady --workload ingest-wal   # two interleaved sets of runs
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// every request asks for explain=true and is replayed through each layer's
// public functions, and the result carries the per-layer metrics. See
// README.md for the workloads, the checks and reference figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// setupRounds is how often a run sets its server(s) up; setup_s is the
// median.
const setupRounds = 15

// workDir holds every file a run writes, relative to the repository root
// the benchmark runs in.
const workDir = ".bench_build"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "digests":
			os.Exit(printDigests(os.Args[2:]))
		case "steady":
			os.Exit(steady(os.Args[2:]))
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "run length the operation count is sized for")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	res, err := run(*name, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one workload instance with its inputs generated.
type bench interface {
	// setup builds the server(s) and answers one untimed warm-up
	// operation, returning once the answer arrived; teardown undoes it.
	setup() error
	teardown()
	ops() int
	// prepare builds operation i's request, outside its timing.
	prepare(i int) error
	// do runs operation i; an error means the operation failed.
	do(i int, traced bool) error
	// replay re-runs operation i through each layer's public functions
	// and records per-layer figures (traced runs only).
	replay(i int, l *layers) error
	// check verifies every answer against the oracle and the method
	// properties, outside the timed phase, and returns the indices of
	// operations whose answer was wrong. An error means the benchmark
	// itself could not check.
	check() (wrong []int, err error)
	// finish adds whole-run per-layer figures (traced runs only).
	finish(l *layers) error
	close()
}

func run(name string, seed int64, seconds int, traced bool) (*result, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	// Fixed so that a GOGC in the caller's environment cannot change what
	// a run measures.
	debug.SetGCPercent(100)
	phase := time.Now()
	lap := func(what string) {
		logf("%s: %s %.2fs", name, what, time.Since(phase).Seconds())
		phase = time.Now()
	}
	if err := checkPinned(w); err != nil {
		return nil, err
	}
	lap("pinned inputs checked in")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, fmt.Errorf("make scratch dir: %w", err)
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, fmt.Errorf("make scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)
	b, err := w.make(seed, seconds, dir)
	if err != nil {
		return nil, err
	}
	defer b.close()
	lap("inputs made in")

	var setups []float64
	for r := 0; r < setupRounds; r++ {
		if r > 0 {
			b.teardown()
		}
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var l *layers
	if traced {
		l = newLayers()
	}
	n := b.ops()
	lat := make([]float64, 0, n)
	failed := make([]bool, n)
	runtime.GC()
	rss := startRSS()
	var wall time.Duration // the requests' own time
	for i := 0; i < n; i++ {
		if err := b.prepare(i); err != nil {
			return nil, fmt.Errorf("prepare operation %d: %w", i, err)
		}
		s := time.Now()
		err := b.do(i, traced)
		d := time.Since(s)
		wall += d
		if err != nil {
			failed[i] = true
			fmt.Fprintf(os.Stderr, "perfbench: operation %d failed: %v\n", i, err)
			continue
		}
		lat = append(lat, float64(d.Nanoseconds())/1e6)
		if traced {
			l.request(float64(d.Nanoseconds()) / 1e6)
			if err := b.replay(i, l); err != nil {
				return nil, fmt.Errorf("replay operation %d: %w", i, err)
			}
		}
	}
	lap(fmt.Sprintf("%d setups and %d operations in", setupRounds, n))
	rssMB, err := rss.stop()
	if err != nil {
		return nil, err
	}
	if traced {
		if err := b.finish(l); err != nil {
			return nil, err
		}
	}
	wrong, err := b.check()
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	lap("answers checked in")
	for _, i := range wrong {
		if !failed[i] {
			fmt.Fprintf(os.Stderr, "perfbench: operation %d answered wrong\n", i)
		}
		failed[i] = true
	}
	nFailed := 0
	for _, f := range failed {
		if f {
			nFailed++
		}
	}
	// A wrong answer fails its operation and the run's correctness; an
	// operation that failed without an answer (an error status, a lost
	// connection) fails only itself.
	res := &result{Correct: len(wrong) == 0, Attempted: n, Failed: nFailed, Metrics: map[string]metric{}}
	if traced {
		res.Metrics = l.metrics()
		return res, nil
	}
	if len(lat) == 0 {
		return nil, errors.New("every operation failed")
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["latency_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	res.Metrics["latency_p90_ms"] = metric{quantile(lat, 0.9), "ms"}
	res.Metrics["throughput_per_s"] = metric{float64(n-nFailed) / wall.Seconds(), "1/s"}
	res.Metrics["rss_p50_mb"] = metric{rssMB, "MB"}
	return res, nil
}

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rssSampler reads the process's resident set every few milliseconds.
type rssSampler struct {
	stopc   chan struct{}
	wg      sync.WaitGroup
	samples []float64
	err     error
}

const rssPeriod = 10 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(rssPeriod)
		defer tick.Stop()
		for {
			mb, err := residentMB()
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, mb)
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) stop() (float64, error) {
	close(s.stopc)
	s.wg.Wait()
	if s.err != nil {
		return 0, s.err
	}
	return median(s.samples), nil
}

// residentMB reads the resident set size from /proc/self/statm.
func residentMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("read resident set: %w", err)
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, fmt.Errorf("read resident set: malformed statm %q", raw)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("read resident set: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// copyDir copies a directory tree of regular files.
func copyDir(dst, src string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, data, 0o644)
	})
}

// logf reports a check finding on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
