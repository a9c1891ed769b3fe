package jobs

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"testing"

	"vax780"
)

func mustKey(t *testing.T, s Spec) string {
	t.Helper()
	k, err := s.Key()
	if err != nil {
		t.Fatalf("Key(%+v): %v", s, err)
	}
	if len(k) != 16 {
		t.Fatalf("Key = %q, want 16 hex digits", k)
	}
	return k
}

func TestSpecKeyIdentity(t *testing.T) {
	base := Spec{Workloads: []string{"TIMESHARING-A"}, Instructions: 2000}
	if mustKey(t, base) != mustKey(t, base) {
		t.Fatal("identical specs hash differently")
	}
	// Every measurement-identity field must move the key.
	variants := []Spec{
		{Workloads: []string{"TIMESHARING-B"}, Instructions: 2000},
		{Workloads: []string{"TIMESHARING-A"}, Instructions: 3000},
		{Workloads: []string{"TIMESHARING-A"}, Instructions: 2000, CacheBytes: 16384},
		{Workloads: []string{"TIMESHARING-A"}, Instructions: 2000, TBEntries: 64},
		{Workloads: []string{"TIMESHARING-A"}, Instructions: 2000, CtxSwitchHeadway: 1000},
		{Workloads: []string{"TIMESHARING-A"}, Instructions: 2000, FaultSeed: 7},
		{Workloads: []string{"TIMESHARING-A"}, Instructions: 2000, FaultMemParity: 1e-5},
		{Workloads: []string{"TIMESHARING-A"}, Instructions: 2000, FaultMachCheck: 1e-6},
	}
	seen := map[string]int{mustKey(t, base): -1}
	for i, v := range variants {
		k := mustKey(t, v)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with %d: %s", i, prev, k)
		}
		seen[k] = i
	}
}

func TestSpecKeyServiceFieldsExcluded(t *testing.T) {
	base := Spec{Workloads: []string{"RTE-EDU"}, Instructions: 1500}
	withService := base
	withService.Tenant = "alice"
	withService.DeadlineMS = 30_000
	withService.Parallelism = 4
	if mustKey(t, base) != mustKey(t, withService) {
		t.Fatal("tenant/deadline/parallelism changed the content address; scheduling hints must share one cached result")
	}
}

func TestSpecKeySweep(t *testing.T) {
	sweep := Spec{
		Workloads:    []string{"TIMESHARING-A"},
		Instructions: 1000,
		Points: []Point{
			{Label: "8KB", CacheBytes: 8192},
			{Label: "16KB", CacheBytes: 16384},
		},
	}
	k1 := mustKey(t, sweep)
	reordered := sweep
	reordered.Points = []Point{sweep.Points[1], sweep.Points[0]}
	if k1 == mustKey(t, reordered) {
		t.Fatal("point order does not move the key; bundle tables are ordered")
	}
	single := Spec{Workloads: []string{"TIMESHARING-A"}, Instructions: 1000, CacheBytes: 8192}
	if k1 == mustKey(t, single) {
		t.Fatal("sweep key collides with single-run key")
	}
}

// labeled returns n design points with distinct labels and no overrides.
func labeled(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i].Label = fmt.Sprintf("p%d", i)
	}
	return pts
}

// specValidateCases are TestSpecValidate's table, also FuzzSpec's seeds.
var specValidateCases = []struct {
	name string
	spec Spec
	ok   bool
}{
	{"zero value", Spec{}, true},
	{"named workloads", Spec{Workloads: []string{"TIMESHARING-A", "RTE-COM"}}, true},
	{"unknown workload", Spec{Workloads: []string{"PDP-11"}}, false},
	{"negative instructions", Spec{Instructions: -1}, false},
	{"negative deadline", Spec{DeadlineMS: -5}, false},
	{"unlabeled point", Spec{Points: []Point{{CacheBytes: 4096}}}, false},
	{"labeled points", Spec{Points: []Point{{Label: "a"}, {Label: "b", CacheWays: 1}}}, true},
	// The work bound: instructions × workloads × max(1, points),
	// defaults (50,000 instructions, five workloads) counted.
	{"work at limit", Spec{Instructions: maxWork / 5}, true},
	{"work over limit", Spec{Instructions: maxWork/5 + 1}, false},
	{"one workload at limit", Spec{Workloads: []string{"RTE-SCI"}, Instructions: maxWork}, true},
	{"sweep at limit", Spec{Workloads: []string{"RTE-SCI"}, Instructions: maxWork / 4, Points: labeled(4)}, true},
	{"sweep over limit", Spec{Workloads: []string{"RTE-SCI"}, Instructions: maxWork/4 + 1, Points: labeled(4)}, false},
	{"default length at limit", Spec{Points: labeled(maxWork / 250_000)}, true},
	{"default length over limit", Spec{Points: labeled(maxWork/250_000 + 1)}, false},
	{"huge instructions", Spec{Instructions: math.MaxInt}, false},
	// Each hardware upper bound itself (one past it is in badHardwareSpecs).
	{"cache at main memory", Spec{CacheBytes: 8 << 20}, true},
	{"TB at page frames", Spec{TBEntries: 16384}, true},
	{"latencies at cap", Spec{MissLatency: 1000, WriteBusy: 1000}, true},
	{"sweep point at bounds", Spec{Points: []Point{{Label: "max", CacheBytes: 8 << 20, TBEntries: 16384,
		MissLatency: 1000, WriteBusy: 1000}}}, true},
}

func TestSpecValidate(t *testing.T) {
	for _, tc := range specValidateCases {
		err := tc.spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: Validate = %v, want nil", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: Validate accepted", tc.name)
			} else if !errors.Is(err, ErrBadSpec) {
				t.Errorf("%s: err = %v, want ErrBadSpec", tc.name, err)
			}
		}
	}
}

// badHardwareSpecs name machines the simulator cannot build.
var badHardwareSpecs = []Spec{
	{MissLatency: -5},
	{CacheBytes: 3},
	{Points: []Point{{Label: "ok"}, {Label: "3-way", CacheWays: 3}}},
	{Points: []Point{{Label: "7-entry TB", TBEntries: 7}}},
	{CtxSwitchHeadway: -1},
	{Points: []Point{{Label: "ok"}, {Label: "negative headway", CtxSwitchHeadway: -1}}},
	// One past each upper bound (vax780.RunConfig.Validate), on the spec
	// and on a sweep point, and the sizes that once validated.
	{CacheBytes: 8<<20 + 16},
	{TBEntries: 16384 + 4},
	{MissLatency: 1001},
	{WriteBusy: 1001},
	{Points: []Point{{Label: "ok"}, {Label: "big cache", CacheBytes: 8<<20 + 16}}},
	{Points: []Point{{Label: "big TB", TBEntries: 16384 + 4}}},
	{Points: []Point{{Label: "slow memory", MissLatency: 1001}}},
	{Points: []Point{{Label: "slow writes", WriteBusy: 1001}}},
	{CacheBytes: 1 << 40},
	{TBEntries: 1 << 40},
	{Points: []Point{{Label: "terabyte cache", CacheBytes: 1 << 40}}},
}

// TestSpecValidateHardware: a spec or sweep point naming a machine the
// simulator cannot build is rejected at admission with the run layer's
// ErrBadConfig, which vaxd serves as 400.
func TestSpecValidateHardware(t *testing.T) {
	for _, spec := range badHardwareSpecs {
		err := spec.Validate()
		if !errors.Is(err, vax780.ErrBadConfig) {
			t.Errorf("%+v: Validate = %v, want ErrBadConfig", spec, err)
		}
		if got := HTTPStatus(err); got != http.StatusBadRequest {
			t.Errorf("%+v: HTTPStatus = %d, want 400", spec, got)
		}
	}
}

func TestHTTPStatusTable(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, http.StatusOK},
		{ErrQueueFull, http.StatusTooManyRequests},
		{ErrQuotaExceeded, http.StatusTooManyRequests},
		{ErrDeadlineExceeded, http.StatusGatewayTimeout},
		{ErrDraining, http.StatusServiceUnavailable},
		{ErrBadSpec, http.StatusBadRequest},
		{ErrUnknownJob, http.StatusNotFound},
		// Wrapped sentinels map the same way: the table is errors.Is-based.
		{fmt.Errorf("%w (depth 16)", ErrQueueFull), http.StatusTooManyRequests},
		{fmt.Errorf("%w: no such workload", ErrBadSpec), http.StatusBadRequest},
		{fmt.Errorf("point %q: %w", "3-way", vax780.ErrBadConfig), http.StatusBadRequest},
		{errors.New("unclassified"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := HTTPStatus(tc.err); got != tc.want {
			t.Errorf("HTTPStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
