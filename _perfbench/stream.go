package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"vax780"
	"vax780/internal/jobs"
)

// jobKind classifies a planned submission.
type jobKind int

const (
	kindCold     jobKind = iota // small single-workload job, distinct design point
	kindHit                     // exact resubmission of an earlier completed job
	kindOverflow                // single-workload job at a length outside the common shapes
	kindSweep                   // small design-point sweep
	kindBurst                   // cold job of the closing burst
	kindCalib                   // the paper's composite, stock hardware
)

var kindNames = [...]string{"cold", "hit", "overflow", "sweep", "burst", "calibration"}

func (k jobKind) String() string { return kindNames[k] }

// cold reports whether the job simulates (everything but a hit).
func (k jobKind) cold() bool { return k != kindHit }

// plannedJob is one submission of the seeded job stream.
type plannedJob struct {
	at   time.Duration // scheduled send time after the stream starts
	kind jobKind
	spec jobs.Spec
	key  string // content address computed in-process
}

// blockKinds is the job mix, in shares of twenty arrivals: mostly cold
// single-workload jobs, exact resubmissions, lengths that overflow the
// simulator's 8-entry shared trace cache, and a few sweeps.
var blockKinds = []jobKind{
	kindCold, kindCold, kindCold, kindCold, kindCold, kindCold, kindCold,
	kindCold, kindCold, kindCold, kindCold, kindCold, kindCold, kindCold,
	kindHit, kindHit, kindHit,
	kindOverflow, kindOverflow,
	kindSweep,
}

// designPoints hands out distinct hardware design points per workload
// in a seeded order, so every cold job has its own content address.
// The points keep 8-16 KB caches of two or four ways, so job cost
// varies little from point to point.
type designPoints struct {
	pts  [][]jobs.Point // per workload
	next []int
}

func newDesignPoints(rng *rand.Rand, workloads int) *designPoints {
	var base []jobs.Point
	for _, cb := range []int{8 << 10, 16 << 10} {
		for _, cw := range []int{2, 4} {
			for _, tb := range []int{64, 128, 256} {
				for _, ml := range []int{4, 5, 6, 7, 8} {
					for _, wb := range []int{4, 5, 6, 7, 8} {
						base = append(base, jobs.Point{CacheBytes: cb, CacheWays: cw,
							TBEntries: tb, MissLatency: ml, WriteBusy: wb})
					}
				}
			}
		}
	}
	d := &designPoints{next: make([]int, workloads)}
	for w := 0; w < workloads; w++ {
		pts := append([]jobs.Point(nil), base...)
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		d.pts = append(d.pts, pts)
	}
	return d
}

// take returns workload w's next unused design point; the pool (300
// points per workload) outlasts any stream the sizes plan.
func (d *designPoints) take(w int) jobs.Point {
	p := d.pts[w][d.next[w]%len(d.pts[w])]
	d.next[w]++
	return p
}

// deck deals workloads in seeded rounds that hold each workload once,
// so every kind of job sees the five workloads in equal shares.
type deck struct {
	rng   *rand.Rand
	n     int
	round []int
}

func (d *deck) deal() int {
	if len(d.round) == 0 {
		d.round = d.rng.Perm(d.n)
	}
	w := d.round[0]
	d.round = d.round[1:]
	return w
}

// stream generates the seeded job stream of the vaxd-mixed workload.
type stream struct {
	rng   *rand.Rand
	dp    *designPoints
	size  sizes
	wls   []string
	decks map[jobKind]*deck
	seq   int // distinguishes sweep labels
}

func newStream(seed int64, size sizes) *stream {
	rng := rand.New(rand.NewSource(seed))
	var wls []string
	for _, id := range vax780.AllWorkloads() {
		wls = append(wls, id.String())
	}
	return &stream{rng: rng, dp: newDesignPoints(rng, len(wls)), size: size, wls: wls,
		decks: make(map[jobKind]*deck)}
}

// workload deals the next workload for a job of the given kind.
func (s *stream) workload(kind jobKind) int {
	d, ok := s.decks[kind]
	if !ok {
		d = &deck{rng: s.rng, n: len(s.wls)}
		s.decks[kind] = d
	}
	return d.deal()
}

// single builds a one-workload job at the given length and a fresh
// design point.
func (s *stream) single(kind jobKind, instr int) jobs.Spec {
	w := s.workload(kind)
	p := s.dp.take(w)
	return jobs.Spec{
		Workloads:    []string{s.wls[w]},
		Instructions: instr,
		CacheBytes:   p.CacheBytes,
		CacheWays:    p.CacheWays,
		TBEntries:    p.TBEntries,
		MissLatency:  p.MissLatency,
		WriteBusy:    p.WriteBusy,
		Parallelism:  1,
	}
}

// sweep builds a small sweep over fresh design points.
func (s *stream) sweep() jobs.Spec {
	s.seq++
	w := s.workload(kindSweep)
	spec := jobs.Spec{
		Workloads:    []string{s.wls[w]},
		Instructions: s.size.sweepInstr,
		Parallelism:  1,
	}
	for i := 0; i < s.size.sweepPoints; i++ {
		p := s.dp.take(w)
		p.Label = fmt.Sprintf("s%d-p%d", s.seq, i)
		spec.Points = append(spec.Points, p)
	}
	return spec
}

// openLoop plans n Poisson arrivals at the configured rate.
func (s *stream) openLoop(n int) ([]plannedJob, error) {
	var plan []plannedJob
	var at time.Duration
	var kinds []jobKind
	for len(plan) < n {
		if len(kinds) == 0 {
			kinds = append(kinds, blockKinds...)
			s.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		}
		kind := kinds[0]
		kinds = kinds[1:]
		at += time.Duration(s.rng.ExpFloat64() / s.size.rate * float64(time.Second))
		pj := plannedJob{at: at, kind: kind}
		switch kind {
		case kindCold:
			pj.spec = s.single(kind, s.size.jobInstr)
		case kindOverflow:
			pj.spec = s.single(kind, s.size.overflowInstr[s.rng.Intn(len(s.size.overflowInstr))])
		case kindSweep:
			pj.spec = s.sweep()
		case kindHit:
			var eligible []int
			for i, prev := range plan {
				if (prev.kind == kindCold || prev.kind == kindOverflow) && prev.at <= at-s.size.hitLag {
					eligible = append(eligible, i)
				}
			}
			if len(eligible) == 0 {
				pj.kind = kindCold // nothing old enough to resubmit yet
				pj.spec = s.single(kindCold, s.size.jobInstr)
				break
			}
			pj.spec = plan[eligible[s.rng.Intn(len(eligible))]].spec
		}
		if err := pj.setKey(); err != nil {
			return nil, err
		}
		plan = append(plan, pj)
	}
	return plan, nil
}

// burst plans n cold jobs submitted at once.
func (s *stream) burst(n int) ([]plannedJob, error) {
	plan := make([]plannedJob, n)
	for i := range plan {
		plan[i] = plannedJob{kind: kindBurst, spec: s.single(kindBurst, s.size.jobInstr)}
		if err := plan[i].setKey(); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

func (pj *plannedJob) setKey() error {
	key, err := pj.spec.Key()
	if err != nil {
		return fmt.Errorf("planned %s job: %w", pj.kind, err)
	}
	pj.key = key
	return nil
}

// describeInputs reports the input properties a plan has: job-kind
// shares, trace shapes against the 8-entry trace cache and their reuse,
// and distinct content addresses.
func describeInputs(o *outcome, plan []plannedJob) {
	counts := make(map[jobKind]int)
	shapes := make(map[string]bool)
	keys := make(map[string]bool)
	var singles, reused int
	for _, pj := range plan {
		counts[pj.kind]++
		keys[pj.key] = true
		if pj.kind == kindHit || pj.spec.IsSweep() {
			continue
		}
		shape := fmt.Sprintf("%v/%d", pj.spec.Workloads, pj.spec.Instructions)
		singles++
		if shapes[shape] {
			reused++
		}
		shapes[shape] = true
	}
	n := float64(len(plan))
	var kinds []string
	for k, c := range counts {
		kinds = append(kinds, fmt.Sprintf("%s %.3f", k, float64(c)/n))
	}
	sort.Strings(kinds)
	o.note("inputs: %d open-loop jobs, shares %v", len(plan), kinds)
	o.note("inputs: %d distinct trace shapes across %d single-workload jobs (trace cache holds 8), reuse share %.3f",
		len(shapes), singles, float64(reused)/float64(max(singles, 1)))
	o.note("inputs: %d distinct content addresses", len(keys))
}
