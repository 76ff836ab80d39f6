package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// testScale runs every window at 1/50 of its declared length.
const testScale = 0.02

func TestWorkloadsRepeatAndReport(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec(cwd)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: 7, traced: true, traceDir: t.TempDir(), scale: testScale}
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			a, err := runWorkload(wl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runWorkload(wl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.problems) > 0 {
				t.Fatalf("output checks failed: %v", a.problems)
			}
			for name, v := range a.values {
				if !hostMetrics[name] && b.values[name] != v {
					t.Errorf("%s: %v then %v; virtual metrics must repeat bit for bit", name, v, b.values[name])
				}
			}
			if k, d := a.values["sim.cpu_kernel_us_per_op"], a.values["sim.cpu_driver_us_per_op"]; k+d != a.values["cpu_us_per_op"] || k == 0 || d == 0 {
				t.Errorf("kernel %v + driver %v CPU per op != cpu_us_per_op %v", k, d, a.values["cpu_us_per_op"])
			}
			for _, traced := range []bool{false, true} {
				ms, err := report(s, a, traced)
				if err != nil {
					t.Fatal(err)
				}
				for name, m := range ms {
					if !validName.MatchString(name) || m.Unit == "" {
						t.Errorf("metric %q (unit %q) is not a valid declared name", name, m.Unit)
					}
				}
				if len(ms) != len(s.metrics(traced)) {
					t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(ms), len(s.metrics(traced)))
				}
			}
			for _, m := range s.EndToEnd {
				if a.values[m.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v; it must never be 0", m.Name, a.values[m.Name])
				}
			}
		})
	}
}

// The CPU split covers every account: whatever is not a driver's and not
// the tracer's is the kernel's.
func TestCPUSplitCoversEveryAccount(t *testing.T) {
	w, err := measureRR(pass{seed: 1, scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for name, busy := range w.cpu {
		if name != "trace" {
			total += float64(busy)
		}
	}
	m := metrics(w)
	if got := (m["sim.cpu_kernel_us_per_op"] + m["sim.cpu_driver_us_per_op"]) * w.ops * 1e3; got < total*(1-1e-12) || got > total*(1+1e-12) {
		t.Errorf("split sums to %v ns, accounts hold %v ns", got, total)
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := findWorkload("nope"); err == nil {
		t.Error("findWorkload accepted an unknown name")
	}
	code, err := run([]string{"-workload", "nope"}, io.Discard)
	if code != 2 || err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("run with an unknown workload: exit %d, err %v; want exit 2", code, err)
	}
}

func TestUndeclaredMetricIsAnError(t *testing.T) {
	s := &spec{EndToEnd: []metricSpec{{Name: "ops_per_s", Unit: "op/s"}}}
	if _, err := report(s, &outcome{values: map[string]float64{"ops_per_s": 1, "made_up": 2}}, false); err == nil {
		t.Error("report emitted a metric BENCHMARK.json does not declare")
	}
}
