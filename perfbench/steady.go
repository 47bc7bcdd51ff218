package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// A steadiness check runs two sets of runsPerSet runs. Run i of set s (0
// or 1) uses seed steadySeed0 + 2i + s.
const (
	runsPerSet  = 5
	steadySeed0 = 101
)

// steady runs a workload as two interleaved sets of runs, each run its own
// process with its own seed, and reports per end-to-end metric each set's
// median and quartiles, the spread of all runs together (IQR ÷ median), and
// whether the sets agree within the bounds in BENCHMARK.json: the spread
// within the bound, set B's median not worse than set A's by more than
// the bound, and the same share of failed operations.
func steady(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var def benchmarkFile
	if err := json.Unmarshal(raw, &def); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: decode BENCHMARK.json:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	sets := [2][]*result{}
	for i := 0; i < runsPerSet; i++ {
		for s := 0; s < 2; s++ {
			seed := steadySeed0 + int64(2*i+s)
			cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(def.RunSeconds), "--trace", "0")
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: run with seed %d: %v\n", seed, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: run with seed %d: decode result: %v\n", seed, err)
				return 1
			}
			if !r.Correct {
				fmt.Fprintf(os.Stderr, "perfbench: run with seed %d reported incorrect answers\n", seed)
				return 1
			}
			sets[s] = append(sets[s], &r)
			var vals []string
			for _, m := range def.EndToEnd {
				vals = append(vals, fmt.Sprintf("%s=%.4g", m.Name, r.Metrics[m.Name].Value))
			}
			fmt.Printf("set %c seed %d: %s\n", 'A'+s, seed, strings.Join(vals, " "))
		}
	}
	agree := true
	fmt.Printf("workload %s: 2 sets x %d runs, --seconds %d, seeds %d..%d\n\n", *name, runsPerSet, def.RunSeconds, steadySeed0, steadySeed0+2*runsPerSet-1)
	fmt.Println("| metric | bound | set A median [q1, q3] | set B median [q1, q3] | all runs IQR/median | B vs A | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, m := range def.EndToEnd {
		var vals [2][]float64
		for s := range sets {
			for _, r := range sets[s] {
				vals[s] = append(vals[s], r.Metrics[m.Name].Value)
			}
		}
		all := append(append([]float64(nil), vals[0]...), vals[1]...)
		q := quartiles(all)
		spread := (q[2] - q[0]) / q[1]
		a, b := quartiles(vals[0]), quartiles(vals[1])
		change := (b[1] - a[1]) / a[1]
		worse := change
		if m.Better == "higher" {
			worse = -change
		}
		ok := worse <= m.Bound && spread <= m.Bound
		verdict := "agree"
		if !ok {
			verdict = "DISAGREE"
			agree = false
		}
		fmt.Printf("| %s (%s) | %.2f | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.3f | %+.3f | %s |\n",
			m.Name, m.Unit, m.Bound, a[1], a[0], a[2], b[1], b[0], b[2], spread, change, verdict)
	}
	var att, fail [2]int
	for s := range sets {
		for _, r := range sets[s] {
			att[s] += r.Attempted
			fail[s] += r.Failed
		}
	}
	if fail[0]*att[1] != fail[1]*att[0] {
		agree = false
	}
	fmt.Printf("\nfailed/attempted: set A %d/%d, set B %d/%d\n", fail[0], att[0], fail[1], att[1])
	if agree {
		fmt.Println("verdict: the two sets agree within the bounds")
		return 0
	}
	fmt.Println("verdict: the two sets DISAGREE")
	return 1
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the default,
// "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		out[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return out
}
