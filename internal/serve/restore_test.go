package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"

	"openhire/internal/checkpoint"
	"openhire/internal/honeypot"
	"openhire/internal/netsim"
)

// rewriteCheckpoint decodes dir's serve checkpoint, lets edit change its
// payload, and writes it back under a fresh CRC, so Load accepts it and only
// Restore's own checks stand between the edit and a resumed daemon. Numbers
// decode as json.Number, keeping 64-bit PRNG states exact.
func rewriteCheckpoint(t *testing.T, dir string, edit func(payload map[string]any)) {
	t.Helper()
	path := checkpoint.FileName(dir, "serve")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	leg, seed, payload, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	payload, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, checkpoint.Encode(leg, seed, payload), 0o644); err != nil {
		t.Fatal(err)
	}
}

// obj walks a decoded JSON payload down a path of object keys.
func obj(t *testing.T, m map[string]any, keys ...string) map[string]any {
	t.Helper()
	for _, k := range keys {
		next, ok := m[k].(map[string]any)
		if !ok {
			t.Fatalf("checkpoint payload has no object at %q", k)
		}
		m = next
	}
	return m
}

// bump adds delta to the json.Number at m[key].
func bump(t *testing.T, m map[string]any, key string, delta uint64) {
	t.Helper()
	n, ok := m[key].(json.Number)
	if !ok {
		t.Fatalf("checkpoint payload has no number at %q", key)
	}
	v, err := strconv.ParseUint(string(n), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	m[key] = json.Number(strconv.FormatUint(v+delta, 10))
}

// TestRestoreRejectsTamperedMonth asserts a mid-month checkpoint whose
// campaign position or honeypot trend rows disagree with the replay of the
// month's committed days fails Restore with ErrCorruptCheckpoint, even when
// its container CRC is valid.
func TestRestoreRejectsTamperedMonth(t *testing.T) {
	const at = 3
	dirs := checkpointsAt(t, testConfig(9), at)
	for _, tc := range []struct {
		name string
		edit func(t *testing.T, p map[string]any)
	}{
		{"campaign src_state", func(t *testing.T, p map[string]any) {
			bump(t, obj(t, p, "campaign"), "src_state", 1)
		}},
		{"campaign events_run", func(t *testing.T, p map[string]any) {
			bump(t, obj(t, p, "campaign"), "events_run", 1)
		}},
		{"campaign dropped", func(t *testing.T, p map[string]any) {
			delete(p, "campaign")
		}},
		{"row attack_events", func(t *testing.T, p map[string]any) {
			bump(t, rowOf(t, p, 1), "attack_events", 1)
		}},
		{"row attack_sources", func(t *testing.T, p map[string]any) {
			bump(t, rowOf(t, p, 0), "attack_sources", 1)
		}},
		{"row attacks_by_type", func(t *testing.T, p map[string]any) {
			rowOf(t, p, 1)["attacks_by_type"] = map[string]any{"bogus": json.Number("1")}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(9)
			cfg.CheckpointDir = copyDir(t, dirs[at])
			rewriteCheckpoint(t, cfg.CheckpointDir, func(p map[string]any) { tc.edit(t, p) })
			_, err := New(cfg).Restore()
			if !errors.Is(err, checkpoint.ErrCorruptCheckpoint) {
				t.Fatalf("Restore = %v, want ErrCorruptCheckpoint", err)
			}
		})
	}
}

// rowOf returns trend row d of a decoded checkpoint payload.
func rowOf(t *testing.T, p map[string]any, d int) map[string]any {
	t.Helper()
	days, ok := obj(t, p, "agg", "trends")["days"].([]any)
	if !ok || d >= len(days) {
		t.Fatalf("checkpoint payload has no trend row %d", d)
	}
	return days[d].(map[string]any)
}

// TestRestoreIgnoresLegacyEvents asserts a checkpoint that still carries the
// month's event log (the layout before the log was dropped, left behind by a
// daemon upgraded mid-month) restores by replay exactly as one without it,
// and that the next commit drops the field.
func TestRestoreIgnoresLegacyEvents(t *testing.T) {
	const at, total = 3, 5
	_, golden := record(t, testConfig(9), total, false)
	cfg := testConfig(4)
	cfg.CheckpointDir = checkpointsAt(t, testConfig(9), at)[at]
	var legacy bytes.Buffer
	if err := honeypot.ExportJSONL(&legacy, []honeypot.Event{{
		Time: netsim.ExperimentStart, Honeypot: "Cowrie", Src: netsim.MustParseIPv4("203.0.113.9"),
		Type: honeypot.AttackScan,
	}}); err != nil {
		t.Fatal(err)
	}
	rewriteCheckpoint(t, cfg.CheckpointDir, func(p map[string]any) { p["events"] = legacy.String() })

	_, got := record(t, cfg, total, true)
	for c := at; c <= total; c++ {
		sameRecord(t, "legacy checkpoint", golden[c], got[c])
	}
	rewriteCheckpoint(t, cfg.CheckpointDir, func(p map[string]any) {
		if _, ok := p["events"]; ok {
			t.Error("checkpoint committed after restore still carries the events field")
		}
	})
}

// rederiveMonth is the incremental fold's oracle: it re-derives month's
// honeypot trend rows through throughDay from the month's whole canonical
// log, as the daemon did before it folded each day's events alone.
func rederiveMonth(a *Aggregates, month, throughDay int, events []honeypot.Event) {
	days := throughDay + 1
	counts := honeypot.DailyCounts(events, netsim.ExperimentStart, days)
	byType := make([]map[string]int, days)
	sources := make([]IPSet, days)
	for _, ev := range events {
		if ev.Time.Before(netsim.ExperimentStart) {
			continue
		}
		d := int(ev.Time.Sub(netsim.ExperimentStart) / (24 * time.Hour))
		if d < 0 || d >= days {
			continue
		}
		if byType[d] == nil {
			byType[d] = make(map[string]int)
		}
		byType[d][string(ev.Type)]++
		sources[d].Add(ev.Src)
		a.Correlate.HoneypotSources.Add(ev.Src)
	}
	base := month * monthDays
	for d := 0; d < days; d++ {
		row := a.Trends.day(base + d)
		row.AttackEvents = counts[d]
		row.AttacksByType = byType[d]
		row.AttackSources = len(sources[d])
	}
}

// sameHoneypotFold asserts the incremental fold's trend rows and honeypot
// source set equal the oracle's.
func sameHoneypotFold(t *testing.T, label string, want, got *Aggregates) {
	t.Helper()
	for _, v := range []struct {
		name      string
		want, got any
	}{
		{"trend rows", want.Trends, got.Trends},
		{"honeypot sources", want.Correlate.HoneypotSources, got.Correlate.HoneypotSources},
	} {
		w, err := json.Marshal(v.want)
		if err != nil {
			t.Fatal(err)
		}
		g, err := json.Marshal(v.got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w, g) {
			t.Fatalf("%s: %s differ from the re-derivation:\n want: %s\n got:  %s", label, v.name, w, g)
		}
	}
}

// TestFoldDayEventsMatchesRederivation is the differential test for the
// incremental honeypot fold: after every day of a whole campaign month, the
// rows and source set folded one day at a time equal a full re-derivation
// from the canonical log of every day so far.
func TestFoldDayEventsMatchesRederivation(t *testing.T) {
	cfg := testConfig(9)
	cfg.Intensity = 0.01
	l := New(cfg)
	const m = 1 // a later month, so rows sit past the first month's
	l.month = l.buildMonth(m)
	inc, total := &Aggregates{}, 0
	var all []honeypot.Event
	for d := 0; d < monthDays; d++ {
		evs := l.campaignDay(m, nil)
		total += len(evs)
		all = append(all, evs...)
		inc.foldDayEvents(&l.month.events, m, d, evs)
		canonical := slices.Clone(all)
		honeypot.SortEventsCanonical(canonical)
		want := &Aggregates{}
		rederiveMonth(want, m, d, canonical)
		sameHoneypotFold(t, fmt.Sprintf("campaign day %d", d), want, inc)
	}
	if total == 0 {
		t.Fatal("the campaign month logged no events")
	}
}

// TestFoldDayEventsEdgeTimes runs the same differential over hand-placed
// events the campaign does not produce today: events stamped past the day
// whose cycle folds them (they must wait for their own day's row), in the
// last day before the month (counted into day 0's events only, as
// honeypot.DailyCounts truncates), and past the month's end (never counted).
func TestFoldDayEventsEdgeTimes(t *testing.T) {
	day := func(d int, h time.Duration) time.Time {
		return netsim.ExperimentStart.Add(time.Duration(d)*24*time.Hour + h)
	}
	ev := func(at time.Time, src string, typ honeypot.AttackType) honeypot.Event {
		return honeypot.Event{Time: at, Honeypot: "Cowrie", Src: netsim.MustParseIPv4(src), Type: typ}
	}
	byCycle := [][]honeypot.Event{
		{ev(day(0, time.Hour), "198.51.100.1", honeypot.AttackScan),
			ev(day(2, time.Hour), "198.51.100.2", honeypot.AttackDoS),
			ev(day(0, -time.Hour), "198.51.100.3", honeypot.AttackScan)},
		nil, // a day with no events of its own
		{ev(day(2, 2*time.Hour), "198.51.100.2", honeypot.AttackDoS),
			ev(day(1, time.Hour), "198.51.100.4", honeypot.AttackBruteForce),
			ev(day(monthDays, time.Hour), "198.51.100.5", honeypot.AttackScan)},
		{ev(day(3, time.Hour), "198.51.100.1", honeypot.AttackMalware)},
	}
	const m = 2
	var acc monthEvents
	inc := &Aggregates{}
	var all []honeypot.Event
	for d, evs := range byCycle {
		all = append(all, evs...)
		inc.foldDayEvents(&acc, m, d, evs)
		want := &Aggregates{}
		rederiveMonth(want, m, d, all)
		sameHoneypotFold(t, fmt.Sprintf("cycle %d", d), want, inc)
	}
}

// BenchmarkServeCycleDurable measures daemon cycles with a checkpoint
// committed after each, over a whole month and its boundary from a fresh
// daemon per iteration, so the commit and any cost that grows with the day
// of the month show; BenchmarkServeCycle commits no checkpoint and stays on
// the month's first days.
func BenchmarkServeCycleDurable(b *testing.B) {
	const cycles = monthDays + 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := testConfig(9)
		cfg.CheckpointDir = b.TempDir()
		l := New(cfg)
		b.StartTimer()
		if err := l.Run(context.Background(), cycles); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cycles), "ns/cycle")
}
