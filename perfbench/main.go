// Command perfbench is the openhire benchmark. It runs one workload against
// the program's default configurations for a fixed time, checks every
// output against recorded digests, and prints the metrics as the last line
// of standard output:
//
//	perfbench --workload report_full|serve_durable|serve_query
//	          --seed N --seconds S --trace 0|1 [--held-out]
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
// traced episodes, prints the per-layer metrics from the traced ones and
// writes their spans under .bench_build/spans/. Run it through
// perfbench/run.sh from the repository root, which builds it first; see
// perfbench/README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"openhire/internal/expr"
	"openhire/internal/serve"
)

// inputSeeds are the program seeds a run rotates through, one per episode,
// starting at inputSeeds[--seed mod len]; a run measures whole rounds, so
// every run sees each world equally often and the spread between runs is
// not the spread between worlds. digests.json holds every output digest
// for each seed. 2021 is the program's default.
var inputSeeds = []uint64{2021, 7, 1337}

// heldOutSeed is recorded in digests.json but never used without
// --held-out: a gain claimed from runs on inputSeeds must also hold here.
const heldOutSeed = 424242

//go:embed digests.json
var digestsJSON []byte

// episode is one workload episode's measurements: a full report, or one
// daemon from set-up through its last cycle.
type episode struct {
	setup, work, cpu  time.Duration
	ops               []float64 // operation latencies, ms
	queries           []query
	attempted, failed int
	digests           map[string]string
	layer             map[string]float64 // traced episodes only
	steal, busy       float64            // the machine's CPU ticks stolen and busy during the episode
}

// bench is one workload's configuration and the run's state.
type bench struct {
	workload  string
	setup     func(b *bench, seed uint64) (time.Duration, error)
	episode   func(b *bench, run int, seed uint64, traced bool) (episode, error)
	world     expr.WorldConfig             // report_full; Seed is set per episode
	serve     serve.Config                 // serve_*; Seed is set per episode
	cycles    int                          // per serve episode
	durable   bool                         // serve_durable: checkpoint every cycle
	queryRate float64                      // serve_query: requests per second
	inputs    []uint64                     // input seeds, in rotation
	first     int                          // rotation start
	minOps    int                          // operations a run measures at least
	golden    map[string]map[string]string // input seed -> output -> digest; nil checks determinism only
	spans     *spanLog
}

// newBench returns the named workload on the program's default
// configuration, rotating through inputSeeds from the one seed selects.
func newBench(name string, seed int64) (*bench, error) {
	b := &bench{
		workload: name,
		inputs:   inputSeeds,
		first:    int(uint64(seed) % uint64(len(inputSeeds))),
		minOps:   minOps,
		spans:    newSpanLog(name),
	}
	switch name {
	case "report_full":
		b.setup, b.episode = reportSetup, reportEpisode
		b.world = expr.DefaultConfig()
	case "serve_durable", "serve_query":
		// 36 cycles cover a full attack month and the next month boundary.
		b.setup, b.episode = serveSetup, serveEpisode
		b.serve = daemonConfig()
		b.cycles = 36
		b.durable = name == "serve_durable"
		if name == "serve_query" {
			b.queryRate = 200
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want report_full, serve_durable or serve_query)", name)
	}
	return b, nil
}

// loadGolden reads the recorded digests of b's outputs for each of its input
// seeds. Both serve workloads share one set: checkpointing and query load
// must not change the daemon's results.
func (b *bench) loadGolden() error {
	var all map[string]map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	key := b.workload
	if strings.HasPrefix(key, "serve_") {
		key = "serve"
	}
	b.golden = make(map[string]map[string]string)
	for _, seed := range b.inputs {
		s := strconv.FormatUint(seed, 10)
		if all[key][s] == nil {
			return fmt.Errorf("digests.json has no %s digests for input seed %s", key, s)
		}
		b.golden[s] = all[key][s]
	}
	return nil
}

// minOps is how many timed operations a run measures at least, whatever
// --seconds says, and how many each window of its latency percentiles holds
// at least, so that at least ten lie beyond a window's 90th percentile.
const minOps = 100

// setupRepeats is how many extra set-ups a run times before its episodes:
// set-up is brief, so its median needs more samples than episodes give.
const setupRepeats = 200

// outcome is what a run measured.
type outcome struct {
	setups            []float64 // seconds, the episodes' set-ups included
	episodes          []episode
	attempted, failed int
	digests           map[string]map[string]string // input seed -> output -> digest
	metrics           map[string]float64
	traced            bool
}

// run times setupRepeats set-ups, then runs episodes, one input seed each in
// rotation, in whole rounds of input seeds: at least one round (and two
// episodes when traced), and more until the run has b.minOps timed
// operations, then another round only while one as long as the last still
// ends within seconds. A GC between episodes starts each from the same
// heap. A traced run traces every second episode.
func (b *bench) run(seconds time.Duration, traced bool) (*outcome, error) {
	out := &outcome{traced: traced, digests: make(map[string]map[string]string)}
	deadline := time.Now().Add(seconds)
	for i := 0; i < setupRepeats; i++ {
		dt, err := b.setup(b, b.inputs[b.first])
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", b.workload, err)
		}
		out.setups = append(out.setups, dt.Seconds())
	}
	// A round is a single episode on --held-out's one input seed, so a traced
	// run needs this to reach its first traced episode.
	minEpisodes := 1
	if traced {
		minEpisodes = 2 // one untraced, one traced
	}
	var roundStart time.Time
	ops := 0
	for i := 0; ; i++ {
		if i%len(b.inputs) == 0 {
			if i >= minEpisodes && ops >= b.minOps && time.Now().Add(time.Since(roundStart)).After(deadline) {
				break
			}
			roundStart = time.Now()
		}
		seed := b.inputs[(b.first+i)%len(b.inputs)]
		runtime.GC()
		tr := traced && i%2 == 1
		var m0, m1 runtime.MemStats
		if tr {
			runtime.ReadMemStats(&m0)
		}
		steal0, busy0 := hostTicks()
		ep, err := b.episode(b, i, seed, tr)
		steal1, busy1 := hostTicks()
		ep.steal, ep.busy = steal1-steal0, busy1-busy0
		if err != nil {
			return nil, fmt.Errorf("%s episode %d (input seed %d): %w", b.workload, i, seed, err)
		}
		if tr {
			runtime.ReadMemStats(&m1)
			ep.layer["runtime.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
			ep.layer["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
			ep.layer["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
		}
		// Every output must match the recorded digest and the same input
		// seed's earlier episodes, and every recorded output must be there.
		s := strconv.FormatUint(seed, 10)
		if out.digests[s] == nil {
			out.digests[s] = ep.digests
		}
		want := out.digests[s]
		if b.golden != nil {
			want = b.golden[s]
		}
		for _, k := range mismatches(ep.digests, want, out.digests[s]) {
			fmt.Fprintf(os.Stderr, "%s episode %d: input seed %s output %s digest %q does not match\n", b.workload, i, s, k, ep.digests[k])
			if _, ok := ep.digests[k]; !ok {
				ep.attempted++ // a recorded output the episode did not produce
			}
			ep.failed++
		}
		ops += len(ep.ops)
		out.attempted += ep.attempted
		out.failed += ep.failed
		out.setups = append(out.setups, ep.setup.Seconds())
		out.episodes = append(out.episodes, ep)
	}
	if traced {
		out.metrics = layerMetrics(out.episodes)
	} else {
		out.metrics = b.endToEndMetrics(out)
	}
	return out, nil
}

// mismatches returns the outputs whose digest in got differs from want or
// from earlier, or that only one of got and want has, in sorted order.
func mismatches(got, want, earlier map[string]string) []string {
	var bad []string
	for k, d := range got {
		if d != want[k] || d != earlier[k] {
			bad = append(bad, k)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	return bad
}

// endToEndMetrics takes set-up, episode and CPU times as medians over the
// run; episode times, like operation latencies, are scaled by the share of
// the machine's busy CPU time the hypervisor did not steal while they ran
// (unstolen), which takes out the wait for CPUs a shared host gave to
// others. Each latency percentile is taken within windows of whole rounds of
// input seeds holding at least minOps timed operations and reported as its
// median over the windows, so a stretch of the run slowed by the host moves
// one window's figure, not the run's.
func (b *bench) endToEndMetrics(o *outcome) map[string]float64 {
	var work, cpu, p50, p90 []float64
	for _, ep := range o.episodes {
		work = append(work, ep.work.Seconds()*unstolen(ep.steal, ep.busy))
		cpu = append(cpu, ep.cpu.Seconds())
	}
	for _, w := range opWindows(o.episodes, len(b.inputs), b.minOps) {
		var ops []float64
		for _, ep := range w {
			ops = append(ops, ep.ops...)
		}
		p50 = append(p50, median(ops))
		p90 = append(p90, quantile(ops, 0.9))
	}
	return map[string]float64{
		"setup_s":     median(o.setups),
		"report_s":    median(work),
		"op_p50_ms":   median(p50),
		"op_p90_ms":   median(p90),
		"ok_ratio":    float64(o.attempted-o.failed) / float64(o.attempted),
		"peak_rss_mb": peakRSSMB(),
		"cpu_s":       median(cpu),
	}
}

// unstolen is the share of the machine's busy CPU time over an interval
// that the hypervisor did not steal, from the interval's ticks; 1 where the
// kernel reports no steal. A program that keeps its CPUs busy runs that
// share of the wall time it would on CPUs of its own; time it spends
// waiting on the disk is scaled too, so a wait-heavy interval on a host with
// steal reads somewhat fast.
func unstolen(steal, busy float64) float64 {
	return 1 - ratio(steal, steal+busy)
}

// unstolenSince is unstolen over the interval since hostTicks read steal0
// and busy0. The ticks are 10 ms of CPU time each, which blurs it over an
// interval as brief as a serve cycle, but only while the hypervisor steals:
// with no steal it is exactly 1.
func unstolenSince(steal0, busy0 float64) float64 {
	steal, busy := hostTicks()
	return unstolen(steal-steal0, busy-busy0)
}

// opWindows splits the episodes, in run order, into windows of whole rounds
// of round episodes with at least minOps timed operations each; a shorter
// last window joins the one before it.
func opWindows(eps []episode, round, minOps int) [][]episode {
	var wins [][]episode
	var cur []episode
	n := 0
	for i, ep := range eps {
		cur = append(cur, ep)
		n += len(ep.ops)
		if (i+1)%round == 0 && n >= minOps {
			wins = append(wins, cur)
			cur, n = nil, 0
		}
	}
	if k := len(wins); k > 0 && len(cur) > 0 {
		wins[k-1] = append(wins[k-1], cur...)
	} else if len(cur) > 0 {
		wins = append(wins, cur)
	}
	return wins
}

// layerMetrics takes each per-layer metric's median over the traced
// episodes, and the tracing overhead as the ratio of traced to untraced
// median episode time.
func layerMetrics(eps []episode) map[string]float64 {
	vals := make(map[string][]float64)
	var plain, traced []float64
	for _, ep := range eps {
		if ep.layer == nil {
			plain = append(plain, ep.work.Seconds())
			continue
		}
		traced = append(traced, ep.work.Seconds())
		for _, m := range perLayer {
			vals[m.name] = append(vals[m.name], ep.layer[m.name])
		}
	}
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = median(vals[m.name])
	}
	out["trace.overhead_ratio"] = ratio(median(traced), median(plain))
	return out
}

// provenance identifies the host, toolchain, code and inputs of a result
// set, so results from different hosts or commits are never compared by
// mistake.
type provenance struct {
	Workload     string                       `json:"workload"`
	Seed         int64                        `json:"seed"`
	InputSeeds   []uint64                     `json:"input_seeds"`
	HeldOut      bool                         `json:"held_out"`
	Trace        bool                         `json:"trace"`
	Seconds      int                          `json:"seconds"`
	Episodes     int                          `json:"episodes"`
	Nproc        int                          `json:"nproc"`
	GOMAXPROCS   int                          `json:"gomaxprocs"`
	CPUModel     string                       `json:"cpu_model"`
	GoVersion    string                       `json:"go_version"`
	Commit       string                       `json:"commit"`
	SourceDigest string                       `json:"source_digest"`
	HostSteal    float64                      `json:"host_steal_share"`
	Digests      map[string]map[string]string `json:"digests"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "query-client" {
		os.Exit(runQueryClient(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "report_full, serve_durable or serve_query")
	seed := fl.Int64("seed", 0, "picks the first input seed")
	seconds := fl.Int("seconds", 10, "how long to measure, in seconds")
	traceMode := fl.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	heldOut := fl.Bool("held-out", false, "run on the held-out input seed")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	b, err := newBench(*workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *heldOut {
		b.inputs, b.first = []uint64{heldOutSeed}, 0
	}
	if err := b.loadGolden(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	traced := *traceMode == 1
	steal0, busy0 := hostTicks()
	out, err := b.run(time.Duration(*seconds)*time.Second, traced)
	steal1, busy1 := hostTicks()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	prov := provenance{
		Workload: *workload, Seed: *seed, HeldOut: *heldOut,
		Trace: traced, Seconds: *seconds, Episodes: len(out.episodes),
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), GoVersion: runtime.Version(),
		Commit: os.Getenv("OPENHIRE_BENCH_COMMIT"), SourceDigest: sourceDigest(),
		HostSteal: ratio(steal1-steal0, steal1-steal0+busy1-busy0),
		Digests:   out.digests,
	}
	for i := range b.inputs {
		prov.InputSeeds = append(prov.InputSeeds, b.inputs[(b.first+i)%len(b.inputs)])
	}
	if traced {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := b.spans.write(path, prov); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			return 1
		}
	}
	correct := out.failed == 0
	if err := printResult(stdout, prov, out, correct); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// printResult writes the provenance line, then the result line, which is
// the last line of standard output.
func printResult(w io.Writer, prov provenance, out *outcome, correct bool) error {
	defs := endToEnd
	if out.traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		metrics[m.name] = value{out.metrics[m.name], m.unit}
	}
	p, err := json.Marshal(map[string]provenance{"provenance": prov})
	if err != nil {
		return err
	}
	r, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", p, r)
	return err
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (ru_maxrss is in KiB on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostTicks reads the host's CPU time stolen by the hypervisor and the time
// spent busy, over all CPUs, in clock ticks (0 where /proc/stat is missing).
// Stolen time slows every wall-clock metric without the program doing more
// work, so a run's share of it tells a disturbed run from a slower program.
func hostTicks() (steal, busy float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	n := func(i int) float64 {
		v, _ := strconv.ParseFloat(f[i], 64)
		return v
	}
	return n(8), n(1) + n(2) + n(3) + n(6) + n(7)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources and the benchmark's files
// under the working directory, which names the code measured where no
// commit hash is available.
func sourceDigest() string {
	h := sha256.New()
	for _, root := range []string{"go.mod", "internal", "cmd", "perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
			h.Write(data)
			return nil
		})
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
