package tenantperf

import (
	"fmt"
	"math"
	"strings"

	"sud/internal/sim"
	"sud/internal/trace"
)

// Options control the windowed measurement (netperf-style confidence
// stopping on aggregate goodput).
type Options struct {
	Warmup     sim.Duration
	Window     sim.Duration
	MinWindows int
	MaxWindows int
	// HalfWidthFrac: stop when the 99% CI is within ±this of the mean.
	HalfWidthFrac float64
}

// DefaultOptions are scaled for thousands of closed-loop connections in
// simulated time.
func DefaultOptions() Options {
	return Options{
		Warmup:        20 * sim.Millisecond,
		Window:        50 * sim.Millisecond,
		MinWindows:    3,
		MaxWindows:    10,
		HalfWidthFrac: 0.05,
	}
}

// TenantResult is one tenant's SLO row.
type TenantResult struct {
	Tenant int
	Queue  int

	Requests   uint64 // accepted replies over the span
	GoodputRPS float64
	P50US      float64
	P99US      float64

	Retrans    uint64 `json:",omitempty"`
	Duplicates uint64 `json:",omitempty"`
	// PersistErrs is the server-side degraded-durability count (storage
	// refused or failed; served from memory).
	PersistErrs uint64 `json:",omitempty"`
}

// Result is the tenant experiment's output (BENCH_tenant.json rows).
type Result struct {
	Mode    string
	Tenants int
	Conns   int
	Queues  int

	TotalRPS float64
	CPU      float64

	PerTenant []TenantResult

	// Noisy rows: the in-run NoisyNeighbor legs (present when the
	// experiment ran them). The gate enforces conviction and the victim
	// p99 band on these.
	Noisy []NoisyResult `json:",omitempty"`

	Windows int
	CIRel   float64
}

// NoisyResult is one noisy-neighbour leg: one tenant's driver queue
// misbehaves; the leg reports whether the fault was convicted/confined and
// the worst sibling-tenant p99 drift while it happened.
type NoisyResult struct {
	Leg      string
	Attacker int // tenant whose queue misbehaves

	// VictimPreP99US is the worst sibling p99 before the attack,
	// VictimP99US the worst sibling p99 during it; MaxDriftFrac is the
	// largest per-victim |during/pre - 1|.
	VictimPreP99US float64
	VictimP99US    float64
	MaxDriftFrac   float64

	Convicted bool
	Detail    string
}

func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TENANT %s T=%d conns=%d Q=%d %9.0f req/s aggregate %5.1f%% CPU\n",
		r.Mode, r.Tenants, r.Conns, r.Queues, r.TotalRPS, r.CPU*100)
	for _, t := range r.PerTenant {
		fmt.Fprintf(&b, "  tenant %2d q%d: %8.0f req/s  p50 %7.1fµs  p99 %7.1fµs",
			t.Tenant, t.Queue, t.GoodputRPS, t.P50US, t.P99US)
		if t.Retrans > 0 || t.Duplicates > 0 {
			fmt.Fprintf(&b, "  (%d retrans, %d dups)", t.Retrans, t.Duplicates)
		}
		b.WriteString("\n")
	}
	for _, n := range r.Noisy {
		verdict := "CONFINED"
		if !n.Convicted {
			verdict = "UNCONVICTED"
		}
		fmt.Fprintf(&b, "  noisy %-11s attacker t%d %-11s victim p99 %7.1fµs -> %7.1fµs (drift %+.1f%%): %s\n",
			n.Leg, n.Attacker, verdict, n.VictimPreP99US, n.VictimP99US, n.MaxDriftFrac*100, n.Detail)
	}
	return b.String()
}

// TenantWindow is one tenant's delta over a measurement span — the unit the
// noisy-neighbour legs compare pre-attack vs during-attack.
type TenantWindow struct {
	Tenant  int
	Replies uint64
	P50US   float64
	P99US   float64
}

// snapshot captures per-tenant histogram + counter baselines.
type snapshot struct {
	lat     []trace.Hist
	replies []uint64
}

func (tb *Testbed) snap() snapshot {
	s := snapshot{}
	for _, tl := range tb.Client.Tenants {
		s.lat = append(s.lat, tl.Lat.Clone())
		s.replies = append(s.replies, tl.Replies)
	}
	return s
}

// since reduces the per-tenant deltas from a snapshot to SLO windows.
func (tb *Testbed) since(base snapshot) []TenantWindow {
	var out []TenantWindow
	for i, tl := range tb.Client.Tenants {
		w := TenantWindow{Tenant: tl.ID, Replies: tl.Replies - base.replies[i]}
		d := tl.Lat.Sub(&base.lat[i])
		if d.Count() > 0 {
			w.P50US = d.PercentileUS(0.50)
			w.P99US = d.PercentileUS(0.99)
		}
		out = append(out, w)
	}
	return out
}

// MeasureWindow runs the loop for `window` and returns each tenant's SLO
// deltas over exactly that span. The client must already be started.
func (tb *Testbed) MeasureWindow(window sim.Duration) []TenantWindow {
	base := tb.snap()
	tb.M.Loop.RunFor(window)
	return tb.since(base)
}

// Run starts the tenant population, measures windowed aggregate goodput to
// convergence, and reports per-tenant SLOs over the measured span.
func Run(tb *Testbed, opt Options) (Result, error) {
	tb.Client.Start()
	defer tb.Client.Stop()
	tb.M.Loop.RunFor(opt.Warmup)

	base := tb.snap()
	var vals, cpus []float64
	for len(vals) < opt.MaxWindows {
		start := tb.M.Now()
		tb.M.CPU.Reset(start)
		before := totalReplies(tb)
		tb.M.Loop.RunFor(opt.Window)
		vals = append(vals, float64(totalReplies(tb)-before)/opt.Window.Seconds())
		cpus = append(cpus, tb.M.CPU.Utilization(tb.M.Now()))
		if len(vals) >= opt.MinWindows {
			m, hw99 := meanCI(vals)
			if m > 0 && hw99/m <= opt.HalfWidthFrac {
				break
			}
		}
	}
	span := sim.Duration(len(vals)) * opt.Window

	mean, hw99 := meanCI(vals)
	cpu, _ := meanCI(cpus)
	res := Result{
		Mode: tb.Cfg.Mode.String(), Tenants: tb.Cfg.Tenants, Conns: tb.Cfg.Conns,
		Queues: tb.Cfg.Queues, TotalRPS: mean, CPU: cpu, Windows: len(vals),
	}
	if mean > 0 {
		res.CIRel = hw99 / mean
	}
	for i, w := range tb.since(base) {
		tl := tb.Client.Tenants[i]
		res.PerTenant = append(res.PerTenant, TenantResult{
			Tenant:      w.Tenant,
			Queue:       tl.Queue,
			Requests:    w.Replies,
			GoodputRPS:  float64(w.Replies) / span.Seconds(),
			P50US:       w.P50US,
			P99US:       w.P99US,
			Retrans:     tl.Retrans,
			Duplicates:  tl.Duplicates,
			PersistErrs: tb.Srv.Tenant(w.Tenant).PersistErrs,
		})
	}
	return res, nil
}

func totalReplies(tb *Testbed) uint64 {
	var n uint64
	for _, tl := range tb.Client.Tenants {
		n += tl.Replies
	}
	return n
}

// VictimDrift reduces pre/during windows to the noisy-leg verdict inputs:
// the worst victim p99 in each phase and the largest per-victim drift
// fraction, attacker excluded.
func VictimDrift(pre, during []TenantWindow, attacker int) (preP99, durP99, maxDrift float64) {
	for i := range pre {
		if pre[i].Tenant == attacker {
			continue
		}
		if pre[i].P99US > preP99 {
			preP99 = pre[i].P99US
		}
		if during[i].P99US > durP99 {
			durP99 = during[i].P99US
		}
		if pre[i].P99US > 0 {
			d := math.Abs(during[i].P99US/pre[i].P99US - 1)
			if d > maxDrift {
				maxDrift = d
			}
		}
	}
	return preP99, durP99, maxDrift
}

// meanCI is the sample mean and the 99% confidence half-width (Student t).
func meanCI(vals []float64) (mean, halfWidth float64) {
	n := float64(len(vals))
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean = sum / n
	if len(vals) < 2 {
		return mean, math.Inf(1)
	}
	var ss float64
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(ss / (n - 1))
	return mean, t99(len(vals)-1) * sd / math.Sqrt(n)
}

// t99 is the two-sided 99% Student-t critical value.
func t99(df int) float64 {
	table := []float64{math.Inf(1), 63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169}
	if df <= 0 {
		return math.Inf(1)
	}
	if df < len(table) {
		return table[df]
	}
	return 2.9
}
