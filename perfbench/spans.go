package main

import (
	"bufio"
	"encoding/json"
	"os"
)

// span is one coarse call timed from outside the program: a stage, a
// fleet run, a search or an HTTP call. The spans of one unit (a
// regeneration, a pass, a search, a churn cycle) share its index, and
// Parent names the unit span that caused them.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Unit   int    `json:"unit"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a phase's spans in memory until the run ends. One
// goroutine writes it.
type spanLog struct{ spans []span }

func (l *spanLog) add(name, parent string, unit int, start, end int64) {
	l.spans = append(l.spans, span{Name: name, Parent: parent, Unit: unit, Start: start, End: end})
}

// count is how many spans of the unit have the given parent.
func (l *spanLog) count(unit int, parent string) int {
	n := 0
	for _, s := range l.spans {
		if s.Unit == unit && s.Parent == parent {
			n++
		}
	}
	return n
}

// durations groups span lengths in seconds by name.
func (l *spanLog) durations() map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range l.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e9)
	}
	return out
}

// ms is every span of the given name, in milliseconds.
func (l *spanLog) ms(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
