package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
// Times are nanoseconds since the recorder's origin; Parent is 0 for a root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Run      int    `json:"run"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	workload string
	origin   time.Time
	spans    []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, origin: time.Now()}
}

// add records a span and returns its id.
func (l *spanLog) add(run, parent int, name string, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Workload: l.workload, Run: run, Name: name,
		Start: start.Sub(l.origin).Nanoseconds(), End: end.Sub(l.origin).Nanoseconds(),
	})
	return id
}

// setEnd closes a span recorded before its end was known.
func (l *spanLog) setEnd(id int, end time.Time) {
	l.spans[id-1].End = end.Sub(l.origin).Nanoseconds()
}

// forRun returns the spans of one run (episode).
func (l *spanLog) forRun(run int) []span {
	var out []span
	for _, s := range l.spans {
		if s.Run == run {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes maps each span id to its duration minus the part of its
// interval that its children cover.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, curStart, curEnd int64
		open := false
		for _, k := range kids {
			start, end := max(k.Start, s.Start), min(k.End, s.End)
			if end <= start {
				continue
			}
			switch {
			case !open:
				curStart, curEnd, open = start, end, true
			case start > curEnd:
				covered += curEnd - curStart
				curStart, curEnd = start, end
			case end > curEnd:
				curEnd = end
			}
		}
		if open {
			covered += curEnd - curStart
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfSeconds sums the self time, in seconds, of the spans whose name
// matches: exactly, or as a prefix when name ends in ".".
func selfSeconds(spans []span, self map[int]time.Duration, name string) float64 {
	var t time.Duration
	for _, s := range spans {
		if s.Name == name || strings.HasSuffix(name, ".") && strings.HasPrefix(s.Name, name) {
			t += self[s.ID]
		}
	}
	return t.Seconds()
}

// write dumps the spans and the run's provenance as one JSON document.
func (l *spanLog) write(path string, prov provenance) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, l.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
