package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"openhire/internal/netsim"
	"openhire/internal/obs"
	"openhire/internal/serve"
)

// daemonConfig is serve.Config as openhire-serve builds it from its default
// flags, less the seed.
func daemonConfig() serve.Config {
	return serve.Config{
		Prefix:           netsim.MustParsePrefix("100.0.0.0/14"),
		Boost:            16,
		Workers:          64,
		Intensity:        1.0 / 16,
		Scale:            1.0 / 8192,
		SegmentsPerCycle: serve.DefaultSegmentsPerCycle,
	}
}

// legSpans names each serve cycle leg after the layer it runs.
var legSpans = map[string]string{
	"campaign":  "attack.campaign",
	"telescope": "telescope.darknet",
	"honeypots": "honeypot.fold",
	"scan":      "scan",
	"commit":    "serve.commit",
}

// daemon is one serve.Loop as a workload sets it up: with a fresh
// checkpoint directory for serve_durable, and with the query API on
// loopback for serve_query.
type daemon struct {
	loop      *serve.Loop
	dir       string
	closer    func() error
	addr      string
	client    *queryClient // serve_query: started by the episode
	clientErr error
	published time.Time // when the last cycle published
}

func startDaemon(b *bench, seed uint64) (*daemon, error) {
	d := &daemon{}
	cfg := b.serve
	cfg.Seed = seed
	if b.durable {
		dir, err := os.MkdirTemp("", "perfbench-ckpt-")
		if err != nil {
			return nil, err
		}
		d.dir, cfg.CheckpointDir = dir, dir
	}
	cfg.OnPublish = func(*serve.Published) {
		// The API answers 503 until the first publish: the query stream
		// starts then.
		if d.published.IsZero() && d.client != nil {
			d.clientErr = d.client.begin()
		}
		d.published = time.Now()
	}
	if b.queryRate > 0 {
		// openhire-serve builds a registry whenever it listens.
		cfg.Registry = obs.NewRegistry()
	}
	d.loop = serve.New(cfg)
	if b.queryRate > 0 {
		addr, closer, err := obs.StartServer("127.0.0.1:0", serve.NewMux(d.loop.Publisher(), cfg.Registry, d.loop.Observatory()))
		if err != nil {
			_, _ = d.close()
			return nil, fmt.Errorf("query API: %w", err)
		}
		d.addr, d.closer = addr, closer
	}
	return d, nil
}

// close stops the query client and the API, removes the checkpoint
// directory, and returns the queries sent.
func (d *daemon) close() ([]query, error) {
	var queries []query
	var err error
	if d.client != nil {
		queries, err = d.client.finish()
		if err == nil {
			err = d.clientErr
		}
	}
	if d.closer != nil {
		if cerr := d.closer(); err == nil {
			err = cerr
		}
	}
	if d.dir != "" {
		if rerr := os.RemoveAll(d.dir); err == nil {
			err = rerr
		}
	}
	return queries, err
}

// serveSetup times one daemon set-up and tears it down.
func serveSetup(b *bench, seed uint64) (time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(b, seed)
	if err != nil {
		return 0, err
	}
	dt := time.Since(t0)
	_, err = d.close()
	return dt, err
}

// serveEpisode runs one fresh daemon for b.cycles cycles, one Loop.Run call
// per cycle: a closed loop with one caller. A cycle's latency runs from its
// Run call to its publish, scaled by the share of CPU time not stolen. The queries, when b.queryRate is set, count as
// attempted operations, and a failed query fails the run, but only the cycles
// are timed as operations: a query's latency from its due time tracks how
// busy the host is about twice as steeply as a cycle's does, so it is a
// per-layer metric (api.*). The episode's output is the final AggregatesJSON.
func serveEpisode(b *bench, run int, seed uint64, traced bool) (ep episode, err error) {
	cpu0 := cpuTime()
	t0 := time.Now()
	d, err := startDaemon(b, seed)
	if err != nil {
		return ep, err
	}
	setupEnd := time.Now()
	ep.setup = setupEnd.Sub(t0)
	defer func() {
		if d != nil {
			_, _ = d.close()
		}
	}()
	if b.queryRate > 0 {
		if d.client, err = startQueryClient("http://"+d.addr, b.queryRate); err != nil {
			return ep, err
		}
	}
	t1 := time.Now()

	var root int
	var cycles, ckptBytes []float64
	if traced {
		b.spans.add(run, 0, "setup", t0, setupEnd)
		root = b.spans.add(run, 0, "episode", t1, t1)
	}
	for c := 1; c <= b.cycles; c++ {
		steal0, busy0 := hostTicks()
		call := time.Now()
		ep.attempted++
		if err := d.loop.Run(context.Background(), c); err != nil {
			fmt.Fprintf(os.Stderr, "cycle %d: %v\n", c, err)
			ep.failed++
			break
		}
		cycles = append(cycles, ms(d.published.Sub(call))*unstolenSince(steal0, busy0))
		if traced {
			cyc := b.spans.add(run, root, "cycle", call, d.published)
			// LastCycleWall gives each leg's duration, not its start: the
			// leg spans are laid back to back from the cycle's start.
			legs, _ := d.loop.Observatory().LastCycleWall()
			at := call
			for _, leg := range legs {
				name, ok := legSpans[leg.Name]
				if !ok {
					name = "serve." + leg.Name
				}
				end := at.Add(time.Duration(leg.WallNS))
				b.spans.add(run, cyc, name, at, end)
				at = end
			}
			if b.durable {
				ckptBytes = append(ckptBytes, dirBytes(d.dir))
			}
		}
	}
	data, aerr := d.loop.AggregatesJSON()
	end := time.Now()
	ep.work = end.Sub(t1)
	ep.queries, err = d.close()
	d = nil
	ep.cpu = cpuTime() - cpu0
	if aerr != nil {
		return ep, fmt.Errorf("aggregates: %w", aerr)
	}
	if err != nil {
		return ep, err
	}
	for _, q := range ep.queries {
		ep.attempted++
		if !q.OK {
			ep.failed++
		}
	}
	ep.ops = cycles
	digest := sha256.Sum256(data)
	ep.digests = map[string]string{"aggregates": hex.EncodeToString(digest[:])}
	if traced {
		b.spans.setEnd(root, end)
		ep.layer, err = serveLayers(b.spans.forRun(run), data, ckptBytes, ep.queries)
	}
	return ep, err
}

// serveLayers turns one traced daemon episode into the per-layer metrics:
// leg times from the spans, volumes from the final aggregates' watermark
// and exposure tables, checkpoint sizes, and the query stream.
func serveLayers(spans []span, aggJSON []byte, ckptBytes []float64, queries []query) (map[string]float64, error) {
	var out struct {
		Watermark  serve.Watermark `json:"watermark"`
		Aggregates struct {
			Exposure struct {
				Current, Total map[string]struct{ Targets, Responded uint64 }
			} `json:"exposure"`
		} `json:"aggregates"`
	}
	if err := json.Unmarshal(aggJSON, &out); err != nil {
		return nil, fmt.Errorf("aggregates: %w", err)
	}
	var targets, responded uint64
	for _, m := range []map[string]struct{ Targets, Responded uint64 }{out.Aggregates.Exposure.Current, out.Aggregates.Exposure.Total} {
		for _, e := range m {
			targets += e.Targets
			responded += e.Responded
		}
	}
	wm := out.Watermark

	self := selfTimes(spans)
	perCycle := make(map[string][]float64)
	var cycleIdx int
	for _, s := range spans {
		switch {
		case s.Name == "cycle":
			perCycle["cycle"] = append(perCycle["cycle"], ms(time.Duration(s.End-s.Start)))
			perCycle["unattributed"] = append(perCycle["unattributed"], ms(self[s.ID]))
			if cycleIdx%30 == 0 {
				perCycle["month_start"] = append(perCycle["month_start"], ms(time.Duration(s.End-s.Start)))
			}
			cycleIdx++
		case s.Parent != 0 && s.Name != "cycle":
			perCycle[s.Name] = append(perCycle[s.Name], ms(self[s.ID]))
		}
	}
	sec := func(name string) float64 { return selfSeconds(spans, self, name) }
	l := map[string]float64{
		"scan.busy_s":                 sec("scan"),
		"scan.probes":                 float64(wm.TargetsFed),
		"scan.ns_per_probe":           ratio(sec("scan")*1e9, float64(wm.TargetsFed)),
		"scan.responded_ratio":        ratio(float64(responded), float64(targets)),
		"serve.scan_ms":               median(perCycle["scan"]),
		"attack.campaign_busy_s":      sec("attack.campaign"),
		"serve.campaign_ms":           median(perCycle["attack.campaign"]),
		"serve.campaign_ns_per_event": ratio(sec("attack.campaign")*1e9, float64(wm.AttackEvents)),
		"telescope.darknet_busy_s":    sec("telescope.darknet"),
		"telescope.flows":             float64(wm.TelescopeFlows),
		"serve.telescope_ms":          median(perCycle["telescope.darknet"]),
		"serve.telescope_ns_per_flow": ratio(sec("telescope.darknet")*1e9, float64(wm.TelescopeFlows)),
		"serve.honeypots_ms":          median(perCycle["honeypot.fold"]),
		"serve.month_start_cycle_ms":  median(perCycle["month_start"]),
		"serve.commit_ms":             median(perCycle["serve.commit"]),
		"serve.cycle_p50_ms":          median(perCycle["cycle"]),
		"serve.cycle_p90_ms":          quantile(perCycle["cycle"], 0.9),
		"serve.unattributed_ms":       median(perCycle["unattributed"]),
	}
	if len(ckptBytes) > 0 {
		l["checkpoint.bytes_per_cycle"] = sum(ckptBytes) / float64(len(ckptBytes))
		l["checkpoint.bytes_max"] = quantile(ckptBytes, 1)
	}
	if len(queries) > 0 {
		var snap, ts, all, lag []float64
		for _, q := range queries {
			if strings.HasPrefix(q.Path, "/api/timeseries") {
				ts = append(ts, ms(q.Latency))
			} else {
				snap = append(snap, ms(q.Latency))
			}
			all = append(all, ms(q.Latency))
			lag = append(lag, ms(q.Lag))
		}
		l["api.snapshot_p50_ms"] = median(snap)
		l["api.timeseries_p50_ms"] = median(ts)
		l["api.p99_ms"] = quantile(all, 0.99)
		l["api.gen_lag_ms"] = quantile(lag, 0.99)
	}
	return l, nil
}

// dirBytes is the total size of the regular files in dir: after a cycle,
// the checkpoint files that cycle rewrote.
func dirBytes(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return float64(n)
}
