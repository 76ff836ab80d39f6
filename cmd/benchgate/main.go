// Command benchgate is the CI perf-regression and recovery-SLO gate: it
// compares the BENCH_*.json files a CI run emitted against the checked-in
// baselines under bench/baselines/ and fails (exit 1) when a headline
// metric leaves the tolerance band or the recovery SLO is violated.
//
//	benchgate -baselines bench/baselines BENCH_rx.json BENCH_blk.json \
//	          BENCH_recovery.json BENCH_flush.json
//
// Every measurement runs in deterministic virtual time, so a drift of any
// size is a real behavioural change — the band (default ±15%) exists only
// to absorb deliberate, reviewed perf movement; moving a baseline is a
// diff in bench/baselines/, reviewed like code. Rules per file kind
// (derived from the file name, BENCH_<kind>.json or <kind>.json):
//
//	rx        []netperf.MultiFlowResult   AggregateKpps per (Q,direction,flows) row
//	rxflip    rx rules, plus each page-flip row must actually have flipped
//	          pages and stay near-zero-copy (GuardBytesPerFrame bounded)
//	blk       []diskperf.Result           ReadKIOPS per (mode,Q,J,D) row
//	blkflip   blk rules with the staged SQ-doorbell rate banded too, plus
//	          each page-flip row must stay zero-copy (GuardBytesPerIO bounded)
//	flush     []diskperf.Result           write IOPS per (mode,Q,J,D,fsync) row
//	recovery  []diskperf.RecoveryResult   zero errors, replay ran, drain p99
//	                                      under -recovery-slo-us, latency in band
//	failover  []diskperf.RecoveryResult   recovery rules, plus the kill must
//	                                      have been served by hot-standby
//	                                      promotion (Failovers ≥ 1) and drain
//	                                      p99 under -failover-slo-us — the
//	                                      tighter budget failover exists for
//	qrecovery []diskperf.QueueRecoveryResult
//	                                      zero errors, a surgical (not
//	                                      process-restart) recovery ran, replay
//	                                      ran, and sibling throughput in band —
//	                                      against both the run's own pre-breach
//	                                      rate and the baseline
//	latency   []report.LatencyRow         end-to-end p50/p99 per (kind,Q) row,
//	                                      merged and per queue — the latency
//	                                      face of the rx and blk scale runs
//	tenant    []tenantperf.Result         per-tenant p50/p99/goodput and the
//	                                      aggregate rate banded per
//	                                      (mode,T,conns,Q) row; the SUD row
//	                                      must carry the NoisyNeighbor legs,
//	                                      every leg convicted with the victim
//	                                      p99 drift inside the band
//
// With -append FILE, one JSON line per checked metric is appended to FILE
// (sha, kind, key, metric, value, baseline) — the perf-trajectory record
// CI uploads so the run history accumulates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sud/internal/diskperf"
	"sud/internal/netperf"
	"sud/internal/report"
	"sud/internal/tenantperf"
)

// Absolute zero-copy bounds for page-flip rows. The flip fast path may
// legitimately fall back to the guard copy for the rare frame that straddles
// an RX slot boundary; anything past these bounds means the copy path came
// back wholesale.
const (
	maxFlipGuardBytesPerFrame = 200
	maxFlipGuardBytesPerIO    = 64
)

type gate struct {
	out        io.Writer // where violations are reported
	tolerance  float64
	sloUS      float64
	failSloUS  float64
	sha        string
	violations int
	trajectory []trajLine
}

type trajLine struct {
	SHA      string  `json:"sha,omitempty"`
	Kind     string  `json:"kind"`
	Key      string  `json:"key"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Baseline float64 `json:"baseline,omitempty"`
}

func main() {
	baselines := flag.String("baselines", "bench/baselines", "directory holding the checked-in baseline JSON files")
	tolerance := flag.Float64("tolerance", 0.15, "allowed relative deviation from the baseline (0.15 = ±15%)")
	sloUS := flag.Float64("recovery-slo-us", 1000, "kill-to-drained p99 budget in virtual microseconds")
	failSloUS := flag.Float64("failover-slo-us", 150, "kill-to-drained p99 budget for hot-standby failover runs — tighter than the cold-respawn SLO because the respawn cost is pre-paid")
	appendPath := flag.String("append", "", "append one JSON line per checked metric to this trajectory file")
	sha := flag.String("sha", os.Getenv("GITHUB_SHA"), "commit identifier recorded in the trajectory")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no BENCH_*.json files given")
		os.Exit(2)
	}
	g := &gate{out: os.Stdout, tolerance: *tolerance, sloUS: *sloUS, failSloUS: *failSloUS, sha: *sha}
	for _, path := range flag.Args() {
		kind := kindOf(path)
		base := filepath.Join(*baselines, kind+".json")
		if err := g.check(kind, path, base); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", path, err)
			os.Exit(2)
		}
	}
	if *appendPath != "" {
		f, err := os.OpenFile(*appendPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		for _, l := range g.trajectory {
			blob, _ := json.Marshal(l)
			fmt.Fprintf(f, "%s\n", blob)
		}
		f.Close()
	}
	if g.violations > 0 {
		fmt.Printf("benchgate: %d violation(s)\n", g.violations)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d metric(s) within ±%.0f%% of baseline, recovery p99 under %.0fµs\n",
		len(g.trajectory), g.tolerance*100, g.sloUS)
}

// kindOf maps BENCH_rx.json / rx.json → "rx".
func kindOf(path string) string {
	name := strings.TrimSuffix(filepath.Base(path), ".json")
	return strings.TrimPrefix(name, "BENCH_")
}

func (g *gate) check(kind, curPath, basePath string) error {
	switch kind {
	case "rx", "rxflip":
		var cur, base []netperf.MultiFlowResult
		if err := load(curPath, &cur); err != nil {
			return err
		}
		if err := load(basePath, &base); err != nil {
			return err
		}
		return g.checkRows(kind, len(cur), len(base), func(i int) (string, []metric) {
			r := cur[i]
			key := fmt.Sprintf("Q=%d dir=%s flows=%d", r.Queues, r.Direction, r.Flows)
			if r.Flip {
				key += " flip"
			}
			// Zero-copy is the point of the flip path: the guard copy may
			// survive only for slot-straddling edge frames. These bounds are
			// absolute, not baseline-relative — a copy creeping back in is a
			// regression even if it is "stable". They apply only where the
			// fast path can engage: the Q=1 reference row keeps the paper's
			// one-message-per-frame transport, whose lone references can
			// never tile a page, so it is guard-copied by design.
			if r.Flip && r.Queues > 1 {
				if r.PagesFlipped == 0 {
					g.violate(kind, key, "page-flip row flipped no pages — the fast path did not engage")
				}
				if r.GuardBytesPerFrame > maxFlipGuardBytesPerFrame {
					g.violate(kind, key, "guard copied %.1f B/frame on the page-flip path (bound %d)",
						r.GuardBytesPerFrame, maxFlipGuardBytesPerFrame)
				}
			}
			b, ok := findRx(base, r)
			if !ok {
				return key, nil
			}
			ms := []metric{{"AggregateKpps", r.AggregateKpps, b.AggregateKpps, true}}
			if r.Flip {
				ms = append(ms, metric{"GuardBytesPerFrame", r.GuardBytesPerFrame, 0, false})
			}
			return key, ms
		})
	case "blk", "flush", "blkflip":
		var cur, base []diskperf.Result
		if err := load(curPath, &cur); err != nil {
			return err
		}
		if err := load(basePath, &base); err != nil {
			return err
		}
		return g.checkRows(kind, len(cur), len(base), func(i int) (string, []metric) {
			r := cur[i]
			key := fmt.Sprintf("%s Q=%d J=%d D=%d", r.Mode, r.Queues, r.Jobs, r.Depth)
			if r.Write {
				key += fmt.Sprintf(" fsync=%d", r.FsyncEvery)
			}
			if r.Flip {
				key += " flip"
				if r.GuardBytesPerIO > maxFlipGuardBytesPerIO {
					g.violate(kind, key, "guard copied %.1f B/io on the page-flip path (bound %d)",
						r.GuardBytesPerIO, maxFlipGuardBytesPerIO)
				}
			}
			b, ok := findBlk(base, r)
			if !ok {
				return key, nil
			}
			ms := []metric{{"KIOPS", r.ReadKIOPS, b.ReadKIOPS, true}}
			if r.Flip {
				// The staged-doorbell rate is banded like a throughput
				// metric: a doubling means the submit-side coalescing
				// quietly stopped amortising.
				ms = append(ms, metric{"SQDoorbellsPerIO", r.SQDoorbellsPerIO, b.SQDoorbellsPerIO, true})
			}
			return key, ms
		})
	case "recovery", "failover":
		var cur, base []diskperf.RecoveryResult
		if err := load(curPath, &cur); err != nil {
			return err
		}
		if err := load(basePath, &base); err != nil {
			return err
		}
		slo := g.sloUS
		if kind == "failover" {
			slo = g.failSloUS
		}
		return g.checkRows(kind, len(cur), len(base), func(i int) (string, []metric) {
			r := cur[i]
			key := fmt.Sprintf("Q=%d J=%d D=%d", r.Queues, r.Jobs, r.Depth)
			if r.Errors != 0 {
				g.violate(kind, key, "recovery surfaced %d application-visible errors", r.Errors)
			}
			if r.Replayed == 0 {
				g.violate(kind, key, "recovery replayed nothing — the kill did not exercise the shadow path")
			}
			if kind == "failover" && r.Failovers == 0 {
				g.violate(kind, key, "kill was recovered by cold respawn, not standby promotion")
			}
			// The SLO: kill-to-drained p99 under the budget. The budget is
			// absolute (an application-visible stall), not baseline-relative.
			if r.DrainP99US > slo {
				g.violate(kind, key, "drain p99 %.1fµs exceeds the %.0fµs SLO", r.DrainP99US, slo)
			}
			b, ok := findRecovery(base, r)
			if !ok {
				// Same rule as rx/blk: a row with no baseline counterpart
				// is a violation, not a silent skip.
				return key, nil
			}
			return key, []metric{
				{"DrainP99US", r.DrainP99US, 0, false},
				{"RecoveryLatencyUS", r.RecoveryLatencyUS, b.RecoveryLatencyUS, true},
				{"Replayed", float64(r.Replayed), float64(b.Replayed), true},
			}
		})
	case "qrecovery":
		var cur, base []diskperf.QueueRecoveryResult
		if err := load(curPath, &cur); err != nil {
			return err
		}
		if err := load(basePath, &base); err != nil {
			return err
		}
		return g.checkRows(kind, len(cur), len(base), func(i int) (string, []metric) {
			r := cur[i]
			key := fmt.Sprintf("Q=%d J=%d D=%d", r.Queues, r.Jobs, r.Depth)
			if r.Errors != 0 {
				g.violate(kind, key, "surgical recovery surfaced %d application-visible errors", r.Errors)
			}
			if r.QueueRecoveries == 0 {
				g.violate(kind, key, "breach was never answered by a surgical recovery")
			}
			if r.Restarts != 0 {
				g.violate(kind, key, "surgical recovery escalated to %d process restarts", r.Restarts)
			}
			if r.Replayed == 0 {
				g.violate(kind, key, "surgical recovery replayed nothing — the breach did not exercise the per-queue shadow path")
			}
			// The point of queue granularity: siblings must stay in band
			// through the episode, judged against the same run's pre-breach
			// rate as well as the checked-in baseline.
			if r.PreSiblingKIOPS > 0 {
				if dev := (r.SiblingKIOPS - r.PreSiblingKIOPS) / r.PreSiblingKIOPS; dev < -g.tolerance || dev > g.tolerance {
					g.violate(kind, key, "sibling throughput %.1f KIOPS left the ±%.0f%% band around the pre-breach %.1f KIOPS",
						r.SiblingKIOPS, g.tolerance*100, r.PreSiblingKIOPS)
				}
			}
			b, ok := findQRecovery(base, r)
			if !ok {
				return key, nil
			}
			return key, []metric{
				{"SiblingKIOPS", r.SiblingKIOPS, b.SiblingKIOPS, true},
				{"BreachedKIOPS", r.BreachedKIOPS, b.BreachedKIOPS, true},
				{"Replayed", float64(r.Replayed), float64(b.Replayed), true},
			}
		})
	case "latency":
		var cur, base []report.LatencyRow
		if err := load(curPath, &cur); err != nil {
			return err
		}
		if err := load(basePath, &base); err != nil {
			return err
		}
		return g.checkRows(kind, len(cur), len(base), func(i int) (string, []metric) {
			r := cur[i]
			key := fmt.Sprintf("%s Q=%d", r.Kind, r.Queues)
			if r.P99US <= 0 {
				g.violate(kind, key, "row recorded no latency samples")
			}
			b, ok := findLatency(base, r)
			if !ok {
				return key, nil
			}
			ms := []metric{
				{"P50US", r.P50US, b.P50US, true},
				{"P99US", r.P99US, b.P99US, true},
			}
			// Per-queue splits are banded too: a single queue going slow
			// while the merge stays flat is exactly the regression a
			// per-queue artifact exists to catch.
			for qi, q := range r.PerQueue {
				if qi >= len(b.PerQueue) {
					g.violate(kind, key, "queue %d has no baseline counterpart", q.Queue)
					continue
				}
				bq := b.PerQueue[qi]
				ms = append(ms,
					metric{fmt.Sprintf("q%d.P50US", q.Queue), q.P50US, bq.P50US, true},
					metric{fmt.Sprintf("q%d.P99US", q.Queue), q.P99US, bq.P99US, true})
			}
			return key, ms
		})
	case "tenant":
		var cur, base []tenantperf.Result
		if err := load(curPath, &cur); err != nil {
			return err
		}
		if err := load(basePath, &base); err != nil {
			return err
		}
		return g.checkRows(kind, len(cur), len(base), func(i int) (string, []metric) {
			r := cur[i]
			key := fmt.Sprintf("%s T=%d conns=%d Q=%d", r.Mode, r.Tenants, r.Conns, r.Queues)
			// The isolation claims are absolute, not baseline-relative: the
			// SUD row must have run the noisy legs, every leg must have
			// convicted its hostile queue, and the sibling tenants' p99 must
			// have stayed inside the band while it happened.
			if r.Mode == "sud" && len(r.Noisy) == 0 {
				g.violate(kind, key, "SUD row carries no NoisyNeighbor legs — isolation was not exercised")
			}
			for _, n := range r.Noisy {
				if !n.Convicted {
					g.violate(kind, key, "noisy leg %s unconvicted: %s", n.Leg, n.Detail)
				}
				if n.MaxDriftFrac > g.tolerance {
					g.violate(kind, key, "noisy leg %s: victim p99 drifted %.1f%% (band ±%.0f%%)",
						n.Leg, n.MaxDriftFrac*100, g.tolerance*100)
				}
			}
			b, ok := findTenant(base, r)
			if !ok {
				return key, nil
			}
			ms := []metric{{"TotalRPS", r.TotalRPS, b.TotalRPS, true}}
			// Per-tenant splits are banded too: one tenant's queue going
			// slow while the aggregate stays flat is exactly the regression
			// a per-tenant artifact exists to catch.
			for ti, tr := range r.PerTenant {
				if ti >= len(b.PerTenant) {
					g.violate(kind, key, "tenant %d has no baseline counterpart", tr.Tenant)
					continue
				}
				bt := b.PerTenant[ti]
				ms = append(ms,
					metric{fmt.Sprintf("t%d.GoodputRPS", tr.Tenant), tr.GoodputRPS, bt.GoodputRPS, true},
					metric{fmt.Sprintf("t%d.P50US", tr.Tenant), tr.P50US, bt.P50US, true},
					metric{fmt.Sprintf("t%d.P99US", tr.Tenant), tr.P99US, bt.P99US, true})
			}
			return key, ms
		})
	default:
		return fmt.Errorf("unknown bench kind %q", kind)
	}
}

// metric is one gated value: current, baseline, and whether the tolerance
// band applies (SLO-only metrics are recorded but banded elsewhere).
type metric struct {
	name   string
	cur    float64
	base   float64
	banded bool
}

// checkRows walks the current rows, resolves each to (key, metrics), and
// applies the band. A row present in only one of the files is itself a
// violation — silently dropping a benchmark row must not pass the gate.
func (g *gate) checkRows(kind string, nCur, nBase int, rowFn func(int) (string, []metric)) error {
	if nCur == 0 {
		return fmt.Errorf("no result rows")
	}
	if nCur != nBase {
		g.violate(kind, "*", "row count %d differs from baseline %d", nCur, nBase)
	}
	for i := 0; i < nCur; i++ {
		key, ms := rowFn(i)
		if ms == nil {
			g.violate(kind, key, "row has no baseline counterpart")
			continue
		}
		for _, m := range ms {
			g.trajectory = append(g.trajectory, trajLine{
				SHA: g.sha, Kind: kind, Key: key, Metric: m.name, Value: m.cur, Baseline: m.base,
			})
			if !m.banded {
				continue
			}
			if m.base == 0 {
				if m.cur != 0 {
					g.violate(kind, key, "%s: baseline 0, current %.2f", m.name, m.cur)
				}
				continue
			}
			if dev := (m.cur - m.base) / m.base; dev < -g.tolerance || dev > g.tolerance {
				g.violate(kind, key, "%s: %.2f vs baseline %.2f (%+.1f%%, band ±%.0f%%)",
					m.name, m.cur, m.base, dev*100, g.tolerance*100)
			}
		}
	}
	return nil
}

func (g *gate) violate(kind, key, format string, args ...any) {
	g.violations++
	fmt.Fprintf(g.out, "FAIL [%s] %s: %s\n", kind, key, fmt.Sprintf(format, args...))
}

func load(path string, out any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(blob, out)
}

func findRx(base []netperf.MultiFlowResult, r netperf.MultiFlowResult) (netperf.MultiFlowResult, bool) {
	for _, b := range base {
		if b.Queues == r.Queues && b.Direction == r.Direction && b.Flows == r.Flows &&
			b.Flip == r.Flip {
			return b, true
		}
	}
	return netperf.MultiFlowResult{}, false
}

func findBlk(base []diskperf.Result, r diskperf.Result) (diskperf.Result, bool) {
	for _, b := range base {
		if b.Mode == r.Mode && b.Queues == r.Queues && b.Jobs == r.Jobs &&
			b.Depth == r.Depth && b.Write == r.Write && b.FsyncEvery == r.FsyncEvery &&
			b.Flip == r.Flip {
			return b, true
		}
	}
	return diskperf.Result{}, false
}

func findLatency(base []report.LatencyRow, r report.LatencyRow) (report.LatencyRow, bool) {
	for _, b := range base {
		if b.Kind == r.Kind && b.Queues == r.Queues {
			return b, true
		}
	}
	return report.LatencyRow{}, false
}

func findQRecovery(base []diskperf.QueueRecoveryResult, r diskperf.QueueRecoveryResult) (diskperf.QueueRecoveryResult, bool) {
	for _, b := range base {
		if b.Queues == r.Queues && b.Jobs == r.Jobs && b.Depth == r.Depth {
			return b, true
		}
	}
	return diskperf.QueueRecoveryResult{}, false
}

func findTenant(base []tenantperf.Result, r tenantperf.Result) (tenantperf.Result, bool) {
	for _, b := range base {
		if b.Mode == r.Mode && b.Tenants == r.Tenants && b.Conns == r.Conns &&
			b.Queues == r.Queues {
			return b, true
		}
	}
	return tenantperf.Result{}, false
}

func findRecovery(base []diskperf.RecoveryResult, r diskperf.RecoveryResult) (diskperf.RecoveryResult, bool) {
	for _, b := range base {
		if b.Queues == r.Queues && b.Jobs == r.Jobs && b.Depth == r.Depth {
			return b, true
		}
	}
	return diskperf.RecoveryResult{}, false
}
