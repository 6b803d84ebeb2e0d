package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"openhire/internal/expr"
)

// reportPhases are the World phase calls a traced episode makes before the
// experiments, in the order the untraced report forces them (Table 4 forces
// the scan, then Sonar and Shodan; Table 5 the filter and classifier; Table
// 7 the attack month; Table 8 the telescope; the headline Censys). Each is
// named after the layer it runs, and each records its own counts.
var reportPhases = []struct {
	name string
	call func(w *expr.World, counts map[string]float64)
}{
	{"scan", func(w *expr.World, c map[string]float64) {
		_, stats := w.RunScan()
		var probed, responded uint64
		for _, st := range stats {
			probed += st.Probed
			responded += st.Responded
		}
		c["scan.probes"] = float64(probed)
		c["scan.responded_ratio"] = ratio(float64(responded), float64(probed))
	}},
	{"datasets.sonar", func(w *expr.World, _ map[string]float64) { w.Sonar() }},
	{"datasets.shodan", func(w *expr.World, _ map[string]float64) { w.Shodan() }},
	{"fingerprint", func(w *expr.World, _ map[string]float64) { w.FilterHoneypots() }},
	{"classify", func(w *expr.World, c map[string]float64) {
		findings, _ := w.Classify()
		c["classify.findings"] = float64(len(findings))
	}},
	{"attack.campaign", func(w *expr.World, c map[string]float64) {
		st := w.RunAttackMonth()
		c["attack.events_ratio"] = ratio(float64(st.EventsRun), float64(st.EventsPlanned))
	}},
	{"telescope.darknet", func(w *expr.World, c map[string]float64) {
		c["telescope.flows"] = float64(w.RunTelescope())
	}},
	{"datasets.censys", func(w *expr.World, _ map[string]float64) { w.PopulateCensys() }},
}

// reportSetup times one world build.
func reportSetup(b *bench, seed uint64) (time.Duration, error) {
	cfg := b.world
	cfg.Seed = seed
	t0 := time.Now()
	expr.BuildWorld(cfg)
	return time.Since(t0), nil
}

// reportEpisode builds a world and renders all 18 experiments on it, one
// after the other: a closed loop with one caller. Operations are the
// experiments, all due when the report starts, so each one's latency is the
// time until its artifact is rendered, as a user waiting on the report
// sees it, scaled by the share of CPU time not stolen. A traced episode
// forces the phases first, each in its own span, so the experiment spans
// hold only the experiments' own work.
func reportEpisode(b *bench, run int, seed uint64, traced bool) (episode, error) {
	var ep episode
	cfg := b.world
	cfg.Seed = seed
	cpu0 := cpuTime()
	t0 := time.Now()
	w := expr.BuildWorld(cfg)
	t1 := time.Now()
	steal0, busy0 := hostTicks()
	ep.setup = t1.Sub(t0)

	var root int
	counts := make(map[string]float64)
	if traced {
		b.spans.add(run, 0, "setup", t0, t1)
		root = b.spans.add(run, 0, "episode", t1, t1)
		for _, ph := range reportPhases {
			s := time.Now()
			ph.call(w, counts)
			b.spans.add(run, root, ph.name, s, time.Now())
		}
	}
	exps := expr.All()
	results := make([]expr.Result, len(exps))
	for i, e := range exps {
		s := time.Now()
		results[i] = e.Run(w)
		end := time.Now()
		ep.ops = append(ep.ops, ms(end.Sub(t1))*unstolenSince(steal0, busy0))
		if traced {
			b.spans.add(run, root, "exp."+e.ID, s, end)
		}
	}
	end := time.Now()
	ep.work = end.Sub(t1)
	ep.cpu = cpuTime() - cpu0
	ep.attempted = len(exps)

	ep.digests = make(map[string]string, len(exps))
	for i, e := range exps {
		ep.digests[e.ID] = resultDigest(results[i])
	}
	if traced {
		b.spans.setEnd(root, end)
		ep.layer = reportLayers(b.spans.forRun(run), counts)
	}
	return ep, nil
}

// reportLayers turns one traced report episode's spans and counts into the
// per-layer metrics.
func reportLayers(spans []span, counts map[string]float64) map[string]float64 {
	self := selfTimes(spans)
	l := counts
	sec := func(name string) float64 { return selfSeconds(spans, self, name) }
	l["scan.busy_s"] = sec("scan")
	l["scan.ns_per_probe"] = ratio(sec("scan")*1e9, l["scan.probes"])
	l["fingerprint.busy_s"] = sec("fingerprint")
	l["classify.busy_s"] = sec("classify")
	l["datasets.busy_s"] = sec("datasets.")
	l["attack.campaign_busy_s"] = sec("attack.campaign")
	l["telescope.darknet_busy_s"] = sec("telescope.darknet")
	l["expr.table6_s"] = sec("exp.table6")
	l["expr.headline_s"] = sec("exp.headline")
	l["expr.experiments_other_s"] = sec("exp.") - l["expr.table6_s"] - l["expr.headline_s"]
	l["report.unattributed_s"] = sec("episode")
	return l
}

// resultDigest hashes one experiment's artifact and its comparisons.
func resultDigest(r expr.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%+v", r.ID, r.Artifact, r.Comparisons)
	return hex.EncodeToString(h.Sum(nil))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
