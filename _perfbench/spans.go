package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the traced run.
// Names are "<layer>.<operation>"; the layer is the name's first
// component.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"` // request ID shared by one job's spans
	Start  int64  `json:"start_ns"`      // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// spans records spans in memory; a nil *spans records nothing, so the
// untraced run pays one nil test per call site.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	all   []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// begin opens a span and returns the function that closes it with its
// ID (for children).
func (s *spans) begin(parent int, name, req string) (id int, end func()) {
	if s == nil {
		return 0, func() {}
	}
	start := time.Since(s.epoch).Nanoseconds()
	s.mu.Lock()
	id = len(s.all) + 1
	s.all = append(s.all, span{ID: id, Parent: parent, Name: name, Req: req, Start: start})
	s.mu.Unlock()
	return id, func() {
		now := time.Since(s.epoch).Nanoseconds()
		s.mu.Lock()
		s.all[id-1].End = now
		s.mu.Unlock()
	}
}

// add records an already-timed span.
func (s *spans) add(parent int, name, req string, start, end time.Time) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.all) + 1
	s.all = append(s.all, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(s.epoch).Nanoseconds(), End: end.Sub(s.epoch).Nanoseconds()})
	return id
}

func (s *spans) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.all)
}

// writeJSONL writes every span, one JSON object a line.
func (s *spans) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	s.mu.Lock()
	for _, sp := range s.all {
		if err := enc.Encode(sp); err != nil {
			s.mu.Unlock()
			f.Close()
			return err
		}
	}
	s.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums each layer's self time in seconds: every span's
// duration minus the part of it its children cover.
func (s *spans) selfTimes() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	kids := make(map[int][]span)
	for _, sp := range s.all {
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	out := make(map[string]float64)
	for _, sp := range s.all {
		layer, _, _ := strings.Cut(sp.Name, ".")
		self := sp.End - sp.Start - covered(sp, kids[sp.ID])
		out[layer] += float64(self) / 1e9
	}
	return out
}

// covered returns how much of p's interval the union of its children's
// intervals covers.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}
