package main

import (
	"runtime/metrics"
	"time"
)

// layerMetric is one per-layer figure of a traced run. Per-operation
// samples aggregate to their median (times) or mean (counts, sizes and
// ratios); a layer a workload does not reach reports 0.
type layerMetric struct {
	name, unit, better string
	mean               bool
}

// layerCatalog lists every per-layer metric, in BENCHMARK.json order.
var layerCatalog = []layerMetric{
	{"serve.request_ms", "ms", "lower", false},
	{"serve.self_ms", "ms", "lower", false},
	{"serve.layer_coverage", "ratio", "higher", false},
	{"serve.passes_per_tick", "count", "lower", true},
	{"serve.naive_passes_per_tick", "count", "lower", true},
	{"wire.ticks_decode_ms", "ms", "lower", false},
	{"wire.encode_ms", "ms", "lower", false},
	{"wire.response_kb", "KiB", "lower", true},
	{"tsio.parse_ms", "ms", "lower", false},
	{"tsio.parse_allocs", "count", "lower", true},
	{"tsio.upload_kb", "KiB", "lower", true},
	{"tsio.parses_per_query", "count", "lower", true},
	{"model.snapshot_ms", "ms", "lower", false},
	{"core.run_ms", "ms", "lower", false},
	{"core.run_allocs", "count", "lower", true},
	{"core.run_alloc_mb", "MiB", "lower", true},
	{"core.cluster_passes", "count", "lower", true},
	{"core.scan_ms", "ms", "lower", false},
	{"core.cluster_ms", "ms", "lower", false},
	{"core.chain_ms", "ms", "lower", false},
	{"core.filter_ms", "ms", "lower", false},
	{"core.candidates", "count", "lower", true},
	{"core.refine_ms", "ms", "lower", false},
	{"core.refine_units", "count", "lower", true},
	{"core.refine_yield", "ratio", "higher", true},
	{"simplify.ms", "ms", "lower", false},
	{"simplify.vertex_kept_ratio", "ratio", "lower", true},
	{"core.cluster_us_per_tick", "us", "lower", false},
	{"core.chain_us_per_tick", "us", "lower", false},
	{"increment.objects_reclustered", "count", "lower", true},
	{"increment.reuse_ratio", "ratio", "higher", true},
	{"increment.passes_full", "count", "lower", true},
	{"increment.passes_incremental", "count", "higher", true},
	{"wal.append_us_per_tick", "us", "lower", false},
	{"wal.bytes_per_tick", "B", "lower", true},
	{"wal.replay_ms", "ms", "lower", false},
	{"dist.rpc_calls_per_query", "count", "lower", true},
	{"dist.rpc_kb_per_query", "KiB", "lower", true},
	{"dist.shard_ms_max", "ms", "lower", false},
	{"dist.shard_ms_sum", "ms", "lower", false},
	{"dist.merge_ms", "ms", "lower", false},
}

// layers keeps a traced run's per-layer samples in memory until the run
// ends.
type layers struct {
	samples map[string][]float64
	lastReq float64
	probe   []metrics.Sample
}

type allocs struct{ objects, bytes float64 }

func newLayers() *layers {
	return &layers{
		samples: map[string][]float64{},
		probe: []metrics.Sample{
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/gc/heap/allocs:bytes"},
		},
	}
}

func (l *layers) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

// measure times fn, a call into one layer, and counts its heap
// allocations (process-wide; the server is idle between operations of a
// closed loop).
func (l *layers) measure(fn func()) (float64, allocs) {
	metrics.Read(l.probe)
	o0, b0 := l.probe[0].Value.Uint64(), l.probe[1].Value.Uint64()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	metrics.Read(l.probe)
	return ms(d), allocs{
		objects: float64(l.probe[0].Value.Uint64() - o0),
		bytes:   float64(l.probe[1].Value.Uint64() - b0),
	}
}

// request records one operation's request wall time, as the client saw it.
func (l *layers) request(reqMS float64) {
	l.lastReq = reqMS
	l.add("serve.request_ms", reqMS)
}

// opDone closes the operation: covered is the time the named layers below
// the server account for; the rest of the request is the server's own.
func (l *layers) opDone(covered float64) {
	l.add("serve.self_ms", l.lastReq-covered)
	l.add("serve.layer_coverage", covered/l.lastReq)
}

func (l *layers) metrics() map[string]metric {
	out := make(map[string]metric, len(layerCatalog))
	for _, m := range layerCatalog {
		v := 0.0
		if xs := l.samples[m.name]; len(xs) > 0 {
			if m.mean {
				for _, x := range xs {
					v += x
				}
				v /= float64(len(xs))
			} else {
				v = median(xs)
			}
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}
