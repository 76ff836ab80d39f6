// Command perf is the repository's performance benchmark: six workloads
// run under SUD in deterministic virtual time, each measured over one
// fixed-length window, reporting end-to-end metrics and per-layer counters
// read from outside the layers. BENCHMARK.json at the repository root
// declares the workloads, metric names, units, directions and bounds; this
// program refuses to emit a name it does not declare.
//
//	go run . [-workload all|<name>] [-seed N] [-seconds S] [-trace 0|1]
//	         [-trace-dir DIR] [-repeat N] [-json out.json]
//
// The last line of standard output is one JSON result object per workload.
// Exit status: 0 ok, 1 an output check failed, 2 bad usage or a metric
// name BENCHMARK.json does not declare.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"sud/internal/sim"
	"sud/internal/trace"
)

// spec is the part of BENCHMARK.json the program checks itself against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// loadSpec finds BENCHMARK.json in dir or the nearest directory above it.
func loadSpec(dir string) (*spec, error) {
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var s spec
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &s, s.validate()
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("BENCHMARK.json not found")
		}
		dir = parent
	}
}

// validate checks that the declared workloads are exactly the program's and
// that every metric name is well formed and declared once.
func (s *spec) validate() error {
	var declared, known []string
	for _, w := range s.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		known = append(known, w.name)
	}
	if strings.Join(declared, " ") != strings.Join(known, " ") {
		return fmt.Errorf("BENCHMARK.json declares workloads %v, the program runs %v", declared, known)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, s.EndToEnd...), s.PerLayer...) {
		if !validName.MatchString(m.Name) || seen[m.Name] {
			return fmt.Errorf("BENCHMARK.json: bad or repeated metric name %q", m.Name)
		}
		seen[m.Name] = true
	}
	return nil
}

func (s *spec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// hostMetrics are measured in host time or host memory; every other metric
// is virtual and repeats bit for bit on a seed.
var hostMetrics = map[string]bool{
	"setup_s": true, "host_alloc_b_per_op": true, "host_heap_mb": true, "sim.host_ns_per_event": true,
}

// config is one invocation's settings.
type config struct {
	seed     uint64
	seconds  float64 // host time to keep repeating the measured pass; 0 = one pass
	traced   bool    // report per-layer metrics, with a traced pass
	traceDir string  // where the traced pass writes its artifacts
	scale    float64 // shrinks windows, kill runs and set-up boots (tests run small)
}

// outcome is one workload run: every metric the program computed, and the
// output checks that failed.
type outcome struct {
	values    map[string]float64
	attempted uint64
	failed    uint64
	problems  []string
	passes    int
	elapsed   time.Duration
}

// Set-up is the testbed boot, timed setupBoots times after setupWarm
// untimed boots. Each boot starts cold, from a heap whose free memory went
// back to the operating system, as in a fresh process: a boot that reuses
// warm memory runs 2-4x faster or slower depending on what the collector
// last did. A cold boot's cost is mostly page faults, and on a shared host
// their cost drifts by 20-40% over minutes. So each boot is paired with a
// fixed calibration, faulting in calibrationBytes of fresh memory, and
// scaled to the calibration's nominal time: setup_s is the median boot in
// seconds on a host that faults calibrationBytes in calibrationNominal.
const (
	setupWarm          = 3
	setupBoots         = 21
	calibrationBytes   = 16 << 20
	calibrationNominal = 8 * time.Millisecond
)

func setupSeconds(wl *workload, scale float64) (float64, error) {
	boots := max(int(math.Round(setupBoots*scale)), 1)
	var ts []float64
	for i := 0; i < setupWarm+boots; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		if err := wl.boot(); err != nil {
			return 0, fmt.Errorf("%s: boot: %w", wl.name, err)
		}
		boot := time.Since(t0)
		if i >= setupWarm {
			ts = append(ts, boot.Seconds()*float64(calibrationNominal)/float64(faultIn()))
		}
	}
	return median(ts), nil
}

// faultIn times allocating calibrationBytes of fresh memory and touching
// every page of it.
func faultIn() time.Duration {
	debug.FreeOSMemory()
	t0 := time.Now()
	b := make([]byte, calibrationBytes)
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	d := time.Since(t0)
	runtime.KeepAlive(b)
	return d
}

// runWorkload measures wl: set-up timing, then the measured pass repeated
// on fresh testbeds until cfg.seconds of host time are used (at least
// once), then — when traced — the short traced pass. Virtual metrics must
// repeat exactly across passes; host metrics are medians over them.
func runWorkload(wl *workload, cfg config) (*outcome, error) {
	start := time.Now()
	setup, err := setupSeconds(wl, cfg.scale)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		stop, err := startProfile(cfg.traceDir, wl.name)
		if err != nil {
			return nil, err
		}
		defer stop()
	}
	o := &outcome{}
	host := map[string][]float64{}
	loop := time.Now()
	for {
		t0 := time.Now()
		w, err := wl.measure(pass{seed: cfg.seed, scale: cfg.scale})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		m := metrics(w)
		if o.values == nil {
			o.values, o.attempted, o.failed, o.problems = m, uint64(w.ops)+w.failed, w.failed, w.checks
			if w.ops == 0 {
				o.problems = append(o.problems, "no operation completed")
			}
		} else {
			for name, v := range m {
				if !hostMetrics[name] && v != o.values[name] {
					o.problems = append(o.problems, fmt.Sprintf("pass %d: %s = %v, first pass %v", o.passes+1, name, v, o.values[name]))
				}
			}
		}
		for name := range hostMetrics {
			host[name] = append(host[name], m[name])
		}
		o.passes++
		if time.Since(loop).Seconds()+time.Since(t0).Seconds() > cfg.seconds {
			break
		}
	}
	for name, vs := range host {
		o.values[name] = median(vs)
	}
	o.values["setup_s"] = setup
	if cfg.traced {
		if err := tracedPass(wl, cfg, o); err != nil {
			return nil, err
		}
	}
	o.elapsed = time.Since(start)
	return o, nil
}

// tracedPass re-runs the workload's short window twice on fresh testbeds,
// once with spans recorded, adds the hop and tracing metrics, writes the
// Chrome trace, and checks that observing changed nothing.
func tracedPass(wl *workload, cfg config, o *outcome) error {
	plain, err := wl.measure(pass{seed: cfg.seed, scale: cfg.scale, short: true})
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	traced, err := wl.measure(pass{seed: cfg.seed, scale: cfg.scale, short: true, traced: true})
	if err != nil {
		return fmt.Errorf("%s traced: %w", wl.name, err)
	}
	if traced.ops != plain.ops {
		o.problems = append(o.problems, fmt.Sprintf("tracing changed the result: %v ops traced, %v untraced", traced.ops, plain.ops))
	}
	if traced.dropped > 0 {
		o.problems = append(o.problems, fmt.Sprintf("tracer dropped %d span events", traced.dropped))
	}
	o.problems = append(o.problems, traced.checks...)
	for name, v := range traceMetrics(traced) {
		o.values[name] = v
	}
	path := filepath.Join(cfg.traceDir, wl.name+".trace.json")
	if err := os.WriteFile(path, trace.ChromeJSON(traced.events, traced.dropped), 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// startProfile starts a host CPU profile of the workload's run.
func startProfile(dir, name string) (stop func(), err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, name+".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perf: close profile: %v\n", err)
		}
	}, nil
}

// metrics computes every non-hop metric the program can name from one
// measured window.
func metrics(w *window) map[string]float64 {
	ops := max(w.ops, 1)
	per := func(k string) float64 { return float64(w.d.n[k]) / ops }
	count := func(k string) float64 { return float64(w.d.n[k]) }
	frac := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	// Every CPU account but the tracer's is either a driver process's
	// (driver:<name>[/qN]) or the kernel's, so the two parts sum to the
	// whole.
	var kernel, driver, busiest sim.Duration
	for name, busy := range w.cpu {
		switch {
		case name == "trace":
		case strings.HasPrefix(name, "driver:"):
			driver += busy
			busiest = max(busiest, busy)
		default:
			kernel += busy
		}
	}
	usPerOp := func(d sim.Duration) float64 { return float64(d) / float64(sim.Microsecond) / ops }

	rx, tx, blk := w.d.merged("netstack.rx"), w.d.merged("netstack.tx"), w.d.merged("blockdev.")
	var blkQP99 float64
	for _, h := range w.d.hists("blockdev.") {
		blkQP99 = max(blkQP99, quantileUS(&h, 0.99))
	}
	var restarts, replayed, recoveryMax float64
	var drains, recoveries []float64
	for _, k := range w.kills {
		restarts += float64(k.Restarts)
		replayed += float64(k.Replayed) / float64(len(w.kills))
		drains = append(drains, k.DrainP99US)
		recoveries = append(recoveries, k.RecoveryLatencyUS)
		recoveryMax = max(recoveryMax, k.RecoveryLatencyUS)
	}
	wakes, spins := w.d.n["uchan.wakeups"], w.d.n["uchan.spin_pickups"]
	hits, misses := w.d.n["iommu.tlb_hits"], w.d.n["iommu.tlb_misses"]

	return map[string]float64{
		"ops_per_s":           w.ops / w.span.Seconds(),
		"p50_us":              w.p50,
		"p99_us":              w.p99,
		"cpu_us_per_op":       usPerOp(kernel) + usPerOp(driver),
		"host_alloc_b_per_op": float64(w.allocBytes) / ops,
		"host_heap_mb":        w.heapMB,

		"sim.cpu_kernel_us_per_op":    usPerOp(kernel),
		"sim.cpu_driver_us_per_op":    usPerOp(driver),
		"sim.cpu_driver_busiest_util": float64(busiest) / float64(w.span),
		"sim.events_per_op":           per("sim.events"),
		"sim.host_ns_per_event":       w.hostNs / max(count("sim.events"), 1),
		"sim.samples":                 float64(w.samples),

		"uchan.wakeups_per_op":   per("uchan.wakeups"),
		"uchan.spin_pickup_frac": frac(spins, spins+wakes),
		"uchan.doorbells_per_op": per("uchan.doorbells"),
		"uchan.upcalls_per_op":   per("uchan.upcalls"),
		"uchan.downcalls_per_op": per("uchan.downcalls"),
		"uchan.max_down_batch":   float64(w.maxBatch),
		"uchan.dropped_full":     count("uchan.dropped_full"),

		"proxy.pages_flipped_per_op":   per("proxy.pages_flipped"),
		"proxy.shootdowns_per_op":      per("proxy.shootdowns"),
		"proxy.recycle_upcalls_per_op": per("proxy.recycle_upcalls"),
		"proxy.guard_bytes_per_op":     per("proxy.guard_bytes"),
		"proxy.flushes_per_op":         per("proxy.flushes"),
		"proxy.rejects":                count("proxy.rejects"),

		"iommu.walks_per_op":             per("iommu.walks"),
		"iommu.tlb_miss_frac":            frac(misses, hits+misses),
		"iommu.faults":                   count("iommu.faults"),
		"hw.dma_errors":                  count("hw.dma_errors"),
		"devices.tdt_writes_per_pkt":     frac(w.d.n["devices.tdt_writes"], w.d.n["devices.tx_packets"]),
		"devices.sq_doorbells_per_io":    per("devices.sq_doorbells"),
		"devices.interrupts_per_op":      per("devices.interrupts"),
		"devices.cache_evictions_per_op": per("devices.cache_evictions"),

		"netstack.rx_p50_us":        quantileUS(&rx, 0.50),
		"netstack.rx_p99_us":        quantileUS(&rx, 0.99),
		"netstack.tx_p50_us":        quantileUS(&tx, 0.50),
		"netstack.tx_p99_us":        quantileUS(&tx, 0.99),
		"netstack.queue_spread":     w.d.spread("netstack.frames.", ""),
		"blockdev.lat_mean_us":      float64(blk.Mean()) / float64(sim.Microsecond),
		"blockdev.queue_p99_max_us": blkQP99,
		"blockdev.flushes_per_op":   per("blockdev.flushes"),

		"kv.retrans":               count("kv.retrans"),
		"kv.duplicates":            count("kv.duplicates"),
		"kv.tenant_goodput_spread": w.d.spread("kv.t", ".replies"),
		"kvserve.persist_errs":     count("kvserve.persist_errs"),

		"sudml.restarts":          restarts,
		"sudml.replayed_per_kill": replayed,
		"sudml.drain_p99_us":      median(drains),
		"sudml.recovery_us":       median(recoveries),
		"sudml.recovery_max_us":   recoveryMax,
	}
}

// traceMetrics reports a traced window: the tracing overhead, and each hop
// pair as hop.<class>.<from>-<to>.{p50_us,p99_us,spans} with the dots and
// dashes inside class and hop names written as "_".
func traceMetrics(w *window) map[string]float64 {
	out := map[string]float64{
		"trace.cpu_us_per_op": float64(w.cpu["trace"]) / float64(sim.Microsecond) / max(w.ops, 1),
		"trace.dropped":       float64(w.dropped),
	}
	clean := strings.NewReplacer(".", "_", "-", "_")
	for _, st := range trace.Summarize(w.events) {
		key := "hop." + clean.Replace(st.Class) + "." + clean.Replace(st.From) + "-" + clean.Replace(st.To)
		out[key+".p50_us"] = quantileUS(&st.Hist, 0.50)
		out[key+".p99_us"] = quantileUS(&st.Hist, 0.99)
		out[key+".spans"] = float64(st.Spans)
	}
	return out
}

// report picks the declared metrics for the mode. Every declared name must
// have been computed, except hop pairs the workload never visits (0); a
// computed non-hop name the spec does not declare is an error, so a metric
// cannot be emitted without a declared unit and direction.
func report(s *spec, o *outcome, traced bool) (map[string]metric, error) {
	declared := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, s.EndToEnd...), s.PerLayer...) {
		declared[m.Name] = true
	}
	for name := range o.values {
		if !declared[name] && !strings.HasPrefix(name, "hop.") {
			return nil, fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		}
	}
	out := map[string]metric{}
	for _, m := range s.metrics(traced) {
		v, ok := o.values[m.Name]
		if !ok && !strings.HasPrefix(m.Name, "hop.") {
			return nil, fmt.Errorf("declared metric %q is not computed", m.Name)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return out, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed per workload.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vs))
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// usageError marks failures that exit 2.
type usageError struct{ error }

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf: %v\n", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 0, "host seconds to keep repeating the measured pass (0 = once)")
	traced := fs.Int("trace", 0, "1 = report per-layer metrics and run the traced pass")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "perf-trace"), "where the traced pass writes Chrome traces and CPU profiles")
	repeat := fs.Int("repeat", 1, "run every pass N times and print each metric's min/median/max against its bound")
	jsonOut := fs.String("json", "", "also write every workload's result to this file")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if fs.NArg() > 0 || *traced < 0 || *traced > 1 || *repeat < 1 {
		return 2, fmt.Errorf("usage: perf [-workload all|<name>] [-seed N] [-seconds S] [-trace 0|1] [-repeat N] [-json file]")
	}
	cwd, err := os.Getwd()
	if err != nil {
		return 2, err
	}
	s, err := loadSpec(cwd)
	if err != nil {
		return 2, err
	}
	var selected []*workload
	if *name == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else {
		wl, err := findWorkload(*name)
		if err != nil {
			return 2, err
		}
		selected = append(selected, wl)
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *traced == 1, traceDir: *traceDir, scale: 1}
	results, err := runAll(s, selected, cfg, *repeat, stdout)
	if err != nil {
		var ue usageError
		if errors.As(err, &ue) {
			return 2, err
		}
		return 1, err
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	for _, r := range results {
		if !r.Correct {
			return 1, errors.New("an output check failed")
		}
	}
	return 0, nil
}

// runAll runs each selected workload repeat times, prints its table, and
// prints its JSON result line last.
func runAll(s *spec, selected []*workload, cfg config, repeat int, stdout io.Writer) (map[string]result, error) {
	results := map[string]result{}
	var lines []string
	for _, wl := range selected {
		var runs []map[string]metric
		res := result{Correct: true}
		for i := 0; i < repeat; i++ {
			fmt.Fprintf(os.Stderr, "perf: %s seed %d run %d/%d\n", wl.name, cfg.seed, i+1, repeat)
			o, err := runWorkload(wl, cfg)
			if err != nil {
				return nil, err
			}
			ms, err := report(s, o, cfg.traced)
			if err != nil {
				return nil, usageError{err}
			}
			runs = append(runs, ms)
			res.Correct = res.Correct && len(o.problems) == 0
			res.Attempted, res.Failed = o.attempted, o.failed
			for _, p := range o.problems {
				fmt.Fprintf(stdout, "CHECK FAILED %s: %s\n", wl.name, p)
			}
			fmt.Fprintf(stdout, "== %s seed %d: %d pass(es), %.1f s host\n", wl.name, cfg.seed, o.passes, o.elapsed.Seconds())
		}
		res.Metrics = printTable(stdout, s.metrics(cfg.traced), runs)
		results[wl.name] = res
		line, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		lines = append(lines, string(line))
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	return results, nil
}

// printTable prints each metric's value, or with several runs its
// min/median/max and whether the spread (max-min)/median is inside the
// declared bound, and returns the per-metric medians.
func printTable(w io.Writer, declared []metricSpec, runs []map[string]metric) map[string]metric {
	out := map[string]metric{}
	for _, m := range declared {
		var vs []float64
		for _, r := range runs {
			vs = append(vs, r[m.Name].Value)
		}
		med := median(vs)
		out[m.Name] = metric{Value: med, Unit: m.Unit}
		if len(runs) == 1 {
			fmt.Fprintf(w, "  %-42s %14.6g %s\n", m.Name, med, m.Unit)
			continue
		}
		lo, hi := slices.Min(vs), slices.Max(vs)
		spread := 0.0
		if med != 0 {
			spread = (hi - lo) / math.Abs(med)
		}
		verdict := ""
		if m.Bound > 0 {
			verdict = fmt.Sprintf("bound %.3g ok", m.Bound)
			if spread > m.Bound {
				verdict = fmt.Sprintf("bound %.3g EXCEEDED", m.Bound)
			}
		}
		fmt.Fprintf(w, "  %-42s min %12.6g  median %12.6g  max %12.6g  spread %.4f %s %s\n",
			m.Name, lo, med, hi, spread, m.Unit, verdict)
	}
	return out
}
