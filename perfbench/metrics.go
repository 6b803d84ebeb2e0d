package main

import (
	"math"
	"sort"
	"time"
)

// metric is one named benchmark metric and its unit. The names and units
// here are the ones BENCHMARK.json declares; a test pins the two together.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the program sees. An untraced run
// prints every one of them on every workload, so each is defined for all
// three: a timed operation is an experiment (report_full) or a cycle
// (serve_durable, and serve_query under its query stream), and an episode is
// one full report or one 36-cycle daemon run. ok_ratio counts serve_query's
// queries as operations too.
var endToEnd = []metric{
	{"setup_s", "s"},      // median set-up: expr.BuildWorld, or serve.New plus listener
	{"report_s", "s"},     // median episode wall time from set-up to the final rendered output, unstolen share
	{"op_p50_ms", "ms"},   // median latency over the run's timed operations, unstolen share
	{"op_p90_ms", "ms"},   // 90th percentile latency over the run's timed operations, unstolen share
	{"ok_ratio", "share"}, // operations that succeeded over operations attempted
	{"peak_rss_mb", "MB"}, // peak resident memory of the process
	{"cpu_s", "s"},        // median user+system CPU seconds per episode, set-up included
}

// perLayer are the traced run's metrics, named after the repository's
// modules. A metric whose layer does no work on a workload prints 0 there.
var perLayer = []metric{
	// core/scan (with netsim and the iot lookup).
	{"scan.busy_s", "s"},
	{"scan.probes", "count"},
	{"scan.ns_per_probe", "ns"},
	{"scan.responded_ratio", "share"},
	{"serve.scan_ms", "ms"},
	// expr: Table 6's oversampled second world and the other experiments.
	{"expr.table6_s", "s"},
	{"expr.headline_s", "s"},
	{"expr.experiments_other_s", "s"},
	// core/fingerprint and core/classify.
	{"fingerprint.busy_s", "s"},
	{"classify.busy_s", "s"},
	{"classify.findings", "count"},
	// datasets: Sonar, Shodan and Censys.
	{"datasets.busy_s", "s"},
	// attack campaign (netsim engine, protocols, honeypot servers).
	{"attack.campaign_busy_s", "s"},
	{"attack.events_ratio", "share"},
	{"serve.campaign_ms", "ms"},
	{"serve.campaign_ns_per_event", "ns"},
	// attack darknet generation and the telescope drain.
	{"telescope.darknet_busy_s", "s"},
	{"telescope.flows", "count"},
	{"serve.telescope_ms", "ms"},
	{"serve.telescope_ns_per_flow", "ns"},
	// honeypot log fold, month rebuild, checkpoint.
	{"serve.honeypots_ms", "ms"},
	{"serve.month_start_cycle_ms", "ms"},
	{"serve.commit_ms", "ms"},
	{"checkpoint.bytes_per_cycle", "bytes"},
	{"checkpoint.bytes_max", "bytes"},
	// serve cycle latency under the traced run, publish and the query API.
	{"serve.cycle_p50_ms", "ms"},
	{"serve.cycle_p90_ms", "ms"},
	{"serve.unattributed_ms", "ms"},
	{"api.snapshot_p50_ms", "ms"},
	{"api.timeseries_p50_ms", "ms"},
	{"api.p99_ms", "ms"},
	{"api.gen_lag_ms", "ms"},
	// Go runtime, per episode.
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	// Attribution and the cost of tracing.
	{"report.unattributed_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
