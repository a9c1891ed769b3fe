package telemetry_test

import (
	"testing"

	"vax780/internal/machine"
	"vax780/internal/mem"
	"vax780/internal/telemetry"
	"vax780/internal/upc"
	"vax780/internal/vax"
)

// publishPeriod mirrors the telemetry layer's publish period: live
// readers may lag the hooks by fewer than this many cycles.
const publishPeriod = 4096

// tally is one reading of the per-event counters, in Counters order.
type tally [8]uint64

func published(c *telemetry.Counters) tally {
	return tally{
		c.Cycles.Load(), c.StallCycles.Load(), c.Instrs.Load(),
		c.CacheMissD.Load(), c.CacheMissI.Load(),
		c.TBMissD.Load(), c.TBMissI.Load(), c.IBRefills.Load(),
	}
}

// driver feeds a telemetry layer a deterministic event mix through its
// probe methods and keeps the true counts alongside.
type driver struct {
	tel  *telemetry.Telemetry
	now  uint64  // machine-local cycle
	want tally   // true counts so far
	hist []tally // true counts after each observed cycle
}

func (d *driver) cycles(n int) {
	for i := 0; i < n; i++ {
		// Events at machine time c precede cycle c, as a decode
		// precedes the cycles that execute it.
		c := d.now
		if c%5 == 0 {
			d.tel.Instr(c, 0x200, vax.MOVL)
			d.want[2]++
		}
		if c%7 == 0 {
			istream := c%2 == 0
			d.tel.CacheMiss(c, istream, 0x1000, 6)
			d.tel.TBMiss(c, istream, 0x2000)
			if istream {
				d.want[4]++
				d.want[6]++
			} else {
				d.want[3]++
				d.want[5]++
			}
		}
		if c%11 == 0 {
			d.tel.Refill(c, 0x200, 1, false)
			d.want[7]++
		}
		stalled := c%3 == 0
		d.tel.Cycle(c, 0x10, stalled)
		d.want[0]++
		if stalled {
			d.want[1]++
		}
		d.now++
		d.hist = append(d.hist, d.want)
	}
}

// checkLag asserts the published counters never run ahead of the true
// counts and include every event older than the publish period.
func (d *driver) checkLag(t *testing.T) {
	t.Helper()
	pub := published(&d.tel.C)
	floor := tally{}
	if n := len(d.hist); n > publishPeriod {
		floor = d.hist[n-publishPeriod]
	}
	for k := range pub {
		if pub[k] > d.want[k] || pub[k] < floor[k] {
			t.Fatalf("after %d cycles counter %d published %d, want %d, floor %d",
				len(d.hist), k, pub[k], d.want[k], floor[k])
		}
	}
}

func (d *driver) checkExact(t *testing.T, at string) {
	t.Helper()
	if pub := published(&d.tel.C); pub != d.want {
		t.Errorf("after %s: published %v, want %v", at, pub, d.want)
	}
}

func bound(tel *telemetry.Telemetry) *driver {
	mon := upc.New()
	mon.Start()
	tel.Bind(mon, &mem.Stats{})
	return &driver{tel: tel}
}

// TestCountersPublishLag: the probe methods count privately and publish
// every 4096 cycles, so a live reader lags by fewer than 4096 cycles and
// never sees more than happened; Finish, Bind, a board command and
// Absorb each publish everything counted so far.
func TestCountersPublishLag(t *testing.T) {
	tel := telemetry.New(telemetry.Options{ROM: machine.ROM()})
	d := bound(tel)
	for i := 0; i < 3*publishPeriod+700; i++ {
		d.cycles(1)
		d.checkLag(t)
	}
	if pub := published(&tel.C); pub == d.want {
		t.Fatal("counters exact between publishes: the test drives no lag")
	}

	tel.Finish()
	d.checkExact(t, "Finish")

	d.cycles(1000)
	d.tel.Bind(upc.New(), &mem.Stats{})
	d.checkExact(t, "Bind")

	d.cycles(1000)
	if err := tel.Command("stop"); err != nil {
		t.Fatal(err)
	}
	d.cycles(1) // the command takes effect, and publishes, at this cycle
	d.checkExact(t, "board command")

	d.cycles(1000)
	child := telemetry.New(telemetry.Options{ROM: machine.ROM()}).NewChild()
	cd := bound(child)
	cd.cycles(2500)
	tel.Absorb(child)
	for k := range d.want {
		d.want[k] += cd.want[k]
	}
	d.checkExact(t, "Absorb")
}
