package telemetry_test

import (
	"testing"

	"vax780/internal/machine"
	"vax780/internal/telemetry"
	"vax780/internal/upc"
	"vax780/internal/workload"
)

// publishPeriod mirrors the telemetry layer's publish period: live
// readers may lag the hooks by fewer than this many cycles.
const publishPeriod = 4096

// tally is one reading of the live counters, in Counters order.
type tally [10]uint64

func published(c *telemetry.Counters) tally {
	return tally{
		c.Cycles.Load(), c.StallCycles.Load(), c.Instrs.Load(),
		c.CacheMissD.Load(), c.CacheMissI.Load(),
		c.TBMissD.Load(), c.TBMissI.Load(), c.IBRefills.Load(),
		c.Interrupts.Load(), c.CtxSwitches.Load(),
	}
}

// driver steps a bound machine's own counters through a deterministic
// event mix, calls the Cycle hook the way the EBOX does, and keeps the
// true counts alongside.
type driver struct {
	tel  *telemetry.Telemetry
	m    *machine.Machine
	want tally   // true counts so far
	hist []tally // true counts after each observed cycle
}

func (d *driver) cycles(n int) {
	for i := 0; i < n; i++ {
		// Events at machine time c precede cycle c, as a decode
		// precedes the cycles that execute it.
		m, c := d.m, d.m.E.Now
		st := &m.Mem.Stats
		if c%5 == 0 {
			m.Stats.Instrs++
			d.want[2]++
		}
		if c%7 == 0 {
			switch c % 3 {
			case 0:
				st.IReadMisses++
				st.ITBMisses++
				d.want[4]++
				d.want[6]++
			case 1:
				st.DReadMisses++
				st.DTBMisses++
				d.want[3]++
				d.want[5]++
			case 2:
				st.PTEReadMisses++
				d.want[3]++
			}
		}
		if c%11 == 0 {
			m.IB.Refs++
			d.want[7]++
		}
		if c%13 == 0 {
			m.Stats.Interrupts++
			d.want[8]++
		}
		if c%17 == 0 {
			m.Stats.CtxSwitches++
			d.want[9]++
		}
		stalled := c%3 == 0
		d.tel.Cycle(c, 0x10, stalled)
		m.E.Now++
		d.want[0]++
		if stalled {
			d.want[1]++
		}
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

// bind builds a fresh machine on tel, which machine.New binds.
func bind(tel *telemetry.Telemetry) *machine.Machine {
	mon := upc.New()
	mon.Start()
	return machine.New(machine.Config{Monitor: mon, Telemetry: tel}, workload.NewProgram())
}

func bound(tel *telemetry.Telemetry) *driver {
	return &driver{tel: tel, m: bind(tel)}
}

// TestCountersPublishLag: the live counters copy the bound machine's own
// counters every 4096 cycles, so a live reader lags by fewer than 4096
// cycles and never sees more than happened; Finish, Bind, a board
// command and Absorb each publish everything counted so far.
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
	d.m = bind(tel)
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
