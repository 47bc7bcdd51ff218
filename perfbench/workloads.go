package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/tsio"
	"repro/perfbench/oracle"
)

// workload is one named benchmark workload.
type workload struct {
	// inputs generates the seed-independent databases the workload draws
	// every operation from, encoded as the workload sends them. Their
	// SHA-256 digests are pinned in pinned and checked before every run.
	inputs func() ([]encoded, error)
	pinned map[string]string
	make   func(seed int64, seconds int, dir string) (bench, error)
	// procs, when > 0, is the GOMAXPROCS the run holds the process to.
	procs int
}

// sharded runs on one core. On two, each query waits for the slower of two
// shards running in parallel, so it takes the worse of the two vCPUs'
// speed drift at every request, and its runs spread past the bounds.
var workloads = map[string]workload{
	"query-cmc":  {inputs: cmcInputs, pinned: cmcPinned, make: makeQueryCMC},
	"query-cuts": {inputs: cutsInputs, pinned: cutsPinned, make: makeQueryCuts},
	"ingest-wal": {inputs: ingestInputs, pinned: ingestPinned, make: makeIngest},
	"sharded":    {inputs: cmcInputs, pinned: cmcPinned, make: makeSharded, procs: 1},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Pinned SHA-256 digests of each workload's generated input bytes. A
// change to internal/datagen that alters a workload's inputs fails every
// run until these are re-pinned (print them anew with `perfbench digests`).
var (
	cmcPinned = map[string]string{
		"truck.csv": "3cbd5de8d347d89d0c4db2a28c9472973138582e6f9d0af85998cac229705fdd",
		"taxi.csv":  "6edb90663337c8fedcd41aff1c120add2981987609510dacf3a6612ecf4ea33d",
	}
	cutsPinned = map[string]string{
		"car-0.ctb":  "ddc342266c69db350d351a04193782019ecbf57d5ad9ef6a87a7657dd8049401",
		"car-1.ctb":  "0f3be0714e071fbcb5b3f9e621420c96e31b6de09fe94080029a89e64804d0a0",
		"taxi-0.ctb": "beafd0de74b59872573abeb736da6e9dd68518b1eefa1f60763676ea8aaa5c25",
		"taxi-1.ctb": "53599f365b31c3fe6971d362bae7da58fe71b81b2d00322e4f8845abfe517b3c",
	}
	ingestPinned = map[string]string{
		"commute.csv": "127691103befee040a0b32125eaec887b90f51620a31c5ae1f9b029be41606ac",
	}
)

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// encoded is one generated database and its upload bytes.
type encoded struct {
	profileInput
	data []byte
}

// encode generates each database and encodes it with enc.
func encode(ins []profileInput, enc func(*model.DB) ([]byte, error)) ([]encoded, error) {
	out := make([]encoded, len(ins))
	for i, in := range ins {
		data, err := enc(in.db)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", in.name, err)
		}
		out[i] = encoded{in, data}
	}
	return out, nil
}

// checkPinned regenerates the workload's inputs and compares their digests
// with the pinned ones.
func checkPinned(w workload) error {
	in, err := w.inputs()
	if err != nil {
		return err
	}
	if len(in) != len(w.pinned) {
		return fmt.Errorf("generated %d inputs, %d pinned", len(in), len(w.pinned))
	}
	for _, e := range in {
		want, ok := w.pinned[e.name]
		if !ok {
			return fmt.Errorf("generated input %s is not pinned", e.name)
		}
		if got := digest(e.data); got != want {
			return fmt.Errorf("input %s has sha256 %s, pinned %s: the generator changed; re-pin with `perfbench digests` and say so", e.name, got, want)
		}
	}
	return nil
}

// printDigests prints every workload's input digests.
func printDigests(args []string) int {
	fs := flag.NewFlagSet("perfbench digests", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, name := range workloadNames() {
		in, err := workloads[name].inputs()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		for _, e := range in {
			st := e.db.Stats()
			fmt.Printf("%-10s %-11s %3d objects %5d ticks %7d points %9d bytes  sha256 %s\n",
				name, e.name, st.NumObjects, st.TimeDomainLength, st.TotalPoints, len(e.data), digest(e.data))
		}
	}
	return 0
}

func csvBytes(db *model.DB) ([]byte, error) {
	var buf bytes.Buffer
	if err := tsio.WriteCSV(&buf, db); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func ctbBytes(db *model.DB) ([]byte, error) {
	var buf bytes.Buffer
	if err := tsio.WriteBinary(&buf, db); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// label is the object's name as the CSV/CTB writers and the server's
// answers spell it.
func label(tr *model.Trajectory) string {
	if tr.Label != "" {
		return tr.Label
	}
	return fmt.Sprintf("o%d", tr.ID)
}

// tracks converts a generated database into the oracle's input, with every
// coordinate shifted by (dx, dy).
func tracks(db *model.DB, dx, dy float64) []oracle.Track {
	out := make([]oracle.Track, 0, db.Len())
	for _, tr := range db.Trajectories() {
		t := oracle.Track{Label: label(tr), Samples: make([]oracle.Sample, len(tr.Samples))}
		for i, s := range tr.Samples {
			t.Samples[i] = oracle.Sample{T: s.T, X: s.P.X + dx, Y: s.P.Y + dy}
		}
		out = append(out, t)
	}
	return out
}

// profileInput is one generated database of a workload.
type profileInput struct {
	name    string
	profile datagen.Profile
	db      *model.DB
}

func generate(name string, p datagen.Profile) profileInput {
	return profileInput{name: name, profile: p, db: p.Generate()}
}
