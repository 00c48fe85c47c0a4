// Command perfbench is the repository benchmark: it boots the stack
// cdas-server runs (simulated crowd, engine, cross-query scheduler, the
// jobs service on a durable LSM store, dispatchers, the v1 HTTP API) in
// this process, drives it through the client SDK with one writer and
// one observer connection, checks the outcome, and prints the metrics
// BENCHMARK.json names. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload batch_tsa --seed 1 --seconds 10 --trace 0
//
// A run repeats iterations until --seconds have passed. Each iteration
// boots a fresh stack on a fresh store, drives the whole workload,
// sweeps the API, closes the stack, reopens the store and checks that
// what the client was told survived. With --trace 1 every second
// iteration runs with timing wrappers at the stack's public seams, and
// the run prints per-layer metrics instead of end-to-end ones.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupSamples is how many times a run boots a stack only to time it,
// before the measured iterations (which also count toward setup_s).
const setupSamples = 9

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload name")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 10, "how long to measure")
		trace   = fs.Int("trace", 0, "1: print per-layer metrics from traced iterations")
		out     = fs.String("out", ".bench_build", "directory for trace spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	in, err := buildInputs(w, inputSeed(*seed, 0))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		d, err := timeSetup(stackFor(w, in))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: setup: %v\n", err)
			return 1
		}
		setups = append(setups, d.Seconds())
	}
	traced := *trace == 1
	var iters []*iterResult
	begin := time.Now()
	for len(iters) < 2 || time.Since(begin) < time.Duration(*seconds)*time.Second {
		// Iteration 1 replays input set 0, which checks that the outcome
		// is a function of the inputs; every later iteration draws a new
		// set, so the quality metrics average over several input sets.
		set := max(len(iters)-1, 0)
		if set > 0 {
			if in, err = buildInputs(w, inputSeed(*seed, set)); err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
		}
		res := runIteration(context.Background(), w, in, stackFor(w, in), traced && len(iters)%2 == 1)
		res.set = set
		iters = append(iters, res)
		fmt.Fprintf(stderr, "perfbench: %s iteration %d (input set %d, traced %v): %.2fs wall (phases %.2f/%.2f/%.2f s), %.0f items, %d/%d failed, hash %s, reopens %.4f s\n",
			w.name, len(iters), set, res.tr != nil, res.wall.Seconds(), res.phases[0].Seconds(), res.phases[1].Seconds(), res.phases[2].Seconds(),
			res.items, res.failed, res.attempted, res.hash, res.recovers)
		for _, p := range res.problems {
			fmt.Fprintf(stderr, "perfbench:   %s\n", p)
		}
		if res.wall == 0 {
			break // the iteration failed before it measured anything
		}
	}
	sum := summarize(w, iters, setups)
	if traced {
		if err := writeSpans(*out, w.name, *seed, iters); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	metrics := sum.endToEnd
	if traced {
		metrics = sum.perLayer
	}
	printTable(stdout, w, *seed, sum, metrics)
	line, err := json.Marshal(result{
		Correct:   sum.failed == 0,
		Attempted: sum.attempted,
		Failed:    sum.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// inputSeed derives input set k's seed from the run's seed.
func inputSeed(seed uint64, set int) uint64 { return seed*7919 + uint64(set) }

// stackFor is the stack configuration a workload's inputs run on.
func stackFor(w workload, in *inputs) stackConfig {
	cfg := stackConfig{
		dispatchers: w.dispatchers,
		flushEvery:  w.flushEvery,
		tweets:      in.tweets,
		golden:      in.golden,
	}
	if w.kind == kindStream {
		cfg.streams = len(in.jobs)
	}
	return cfg
}

// timeSetup boots a stack on a fresh store and closes it again.
func timeSetup(cfg stackConfig) (time.Duration, error) {
	dir, err := os.MkdirTemp("", "perfbench-setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	st, err := bootStack(dir, cfg, nil)
	if err != nil {
		return 0, err
	}
	c, tr := newClient(st.base)
	_, err = c.Health(context.Background())
	d := time.Since(start)
	tr.CloseIdleConnections()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return d, err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type summary struct {
	endToEnd, perLayer, ungated map[string]metric
	attempted, failed           int
	hash                        string
}

// summarize turns the iterations into the run's metrics.
func summarize(w workload, iters []*iterResult, setups []float64) summary {
	var s summary
	var recovers []float64
	timings := make(map[string][]float64)
	quality := make(map[string][]float64)
	sets := make(map[int]bool)
	var hash0 []string
	for _, it := range iters {
		s.attempted += it.attempted
		s.failed += it.failed
		if it.setup > 0 {
			setups = append(setups, it.setup.Seconds())
		}
		recovers = append(recovers, it.recovers...)
		if it.set == 0 && it.wall > 0 {
			hash0 = append(hash0, it.hash)
		}
		if it.tr != nil || it.wall == 0 {
			continue // traced iterations feed only the per-layer metrics
		}
		for name, v := range map[string]float64{
			"throughput_qps": ratio(it.items, it.wall.Seconds()),
			"job_e2e_p50_ms": percentile(it.e2eMS, 50),
			"job_e2e_p95_ms": percentile(it.e2eMS, 95),
			"submit_p50_ms":  percentile(it.submitMS, 50),
			"submit_p95_ms":  percentile(it.submitMS, 95),
			"read_p99_ms":    percentile(it.readMS, 99),
		} {
			timings[name] = append(timings[name], v)
		}
		if sets[it.set] {
			continue // a replayed input set scores the same again
		}
		sets[it.set] = true
		for name, v := range map[string]float64{
			"spend_per_question": ratio(it.spend, it.items),
			"answer_err":         mean(it.tvs),
			"recall":             ratio(it.recallN, it.recallD),
		} {
			quality[name] = append(quality[name], v)
		}
	}
	// Closed-loop iterations of one input set on fresh stacks must agree
	// exactly: any difference in outcome is a determinism failure.
	s.attempted++
	if len(hash0) > 0 {
		s.hash = hash0[0]
	}
	for _, h := range hash0 {
		if h != s.hash {
			s.failed++
			s.hash = "mismatch"
			break
		}
	}

	// Throughput and latency percentiles are taken per untraced
	// iteration and reported as the median over iterations, so a
	// disturbance shorter than half the run does not move them. Cost and
	// quality are means over the input sets. Recovery reopens the same
	// few stores many times, and the host slows it in phases of
	// seconds, so the fastest reopen of the run is the stores' recovery
	// time; the slower ones measured the host as well.
	s.endToEnd = map[string]metric{
		"setup_s":            {median(setups), "s"},
		"recover_s":          {percentile(recovers, 0), "s"},
		"throughput_qps":     {median(timings["throughput_qps"]), "1/s"},
		"job_e2e_p50_ms":     {median(timings["job_e2e_p50_ms"]), "ms"},
		"job_e2e_p95_ms":     {median(timings["job_e2e_p95_ms"]), "ms"},
		"submit_p50_ms":      {median(timings["submit_p50_ms"]), "ms"},
		"spend_per_question": {mean(quality["spend_per_question"]), "usd"},
		"answer_err":         {mean(quality["answer_err"]), "ratio"},
		"recall":             {mean(quality["recall"]), "ratio"},
		"mem_peak_mb":        {peakRSSMB(), "MB"},
	}
	// Printed with the gated metrics, but left out of BENCHMARK.json:
	// error_rate is 0 on a healthy run, and the two latency tails move
	// with the host's load by more than any bound a benchmark may set.
	s.ungated = map[string]metric{
		"submit_p95_ms": {median(timings["submit_p95_ms"]), "ms"},
		"read_p99_ms":   {median(timings["read_p99_ms"]), "ms"},
		"error_rate":    {ratio(float64(s.failed), float64(s.attempted)), "ratio"},
	}
	s.perLayer = perLayer(w, iters, s)
	return s
}

// perLayer derives the per-layer metrics from the traced iterations,
// and the tracing overhead from comparing them with the untraced ones.
func perLayer(w workload, iters []*iterResult, s summary) map[string]metric {
	var (
		spans                                                            []span
		fsyncs, checkpoints, assignments, votes, slots                   float64
		jobs, walAppends, enqueued, deduped, cacheHits, windows, batches float64
		loss, seen, wall, items, plainWall, plainItems                   float64
		phases                                                           [3]float64
		late, lag, plainE2E, tracedE2E                                   []float64
	)
	for _, it := range iters {
		if it.tr == nil {
			plainWall += it.wall.Seconds()
			plainItems += it.items
			plainE2E = append(plainE2E, it.e2eMS...)
			continue
		}
		spans = append(spans, it.tr.recorded()...)
		fsyncs += float64(it.tr.fsyncs.Load())
		checkpoints += float64(it.tr.checkpoints.Load())
		assignments += float64(it.tr.assignments.Load())
		votes += float64(it.tr.votes.Load())
		slots += float64(it.tr.hitSlots.Load())
		jobs += float64(it.jobs)
		walAppends += float64(it.walAppends)
		enqueued += float64(it.enqueued)
		deduped += float64(it.deduped)
		cacheHits += float64(it.cacheHits)
		windows += float64(it.windowsClosed)
		batches += float64(it.enumBatches)
		loss += it.streamLoss
		seen += it.streamSeen
		wall += it.wall.Seconds()
		items += it.items
		for i, p := range it.phases {
			phases[i] += p.Seconds()
		}
		late = append(late, it.lateMS...)
		lag = append(lag, it.lagMS...)
		tracedE2E = append(tracedE2E, it.e2eMS...)
	}
	// Closed loop: extra wall time per item; open loop, where the
	// schedule fixes the wall time: extra median job latency.
	overhead := growthPct(ratio(wall, items), ratio(plainWall, plainItems))
	if w.openLoop {
		overhead = growthPct(percentile(tracedE2E, 50), percentile(plainE2E, 50))
	}
	charges, marks := durations(spans, "jobs.charge"), durations(spans, "jobs.mark_commit")
	submits, reads := durations(spans, "httpapi.submit"), durations(spans, "httpapi.read")
	claims, runs := durations(spans, "jobs.claim_wait"), durations(spans, "jobs.run")
	return map[string]metric{
		"httpapi.submit_p50_ms":        {percentile(submits, 50), "ms"},
		"httpapi.submit_p99_ms":        {percentile(submits, 99), "ms"},
		"httpapi.read_p50_ms":          {percentile(reads, 50), "ms"},
		"httpapi.read_p99_ms":          {percentile(reads, 99), "ms"},
		"httpapi.reads":                {float64(len(reads)), "count"},
		"httpapi.sse_done_lag_p50_ms":  {percentile(lag, 50), "ms"},
		"httpapi.sse_done_samples":     {float64(len(lag)), "count"},
		"jobs.claim_wait_p50_ms":       {percentile(claims, 50), "ms"},
		"jobs.claim_wait_p99_ms":       {percentile(claims, 99), "ms"},
		"jobs.run_p50_ms":              {percentile(runs, 50), "ms"},
		"jobs.run_p99_ms":              {percentile(runs, 99), "ms"},
		"jobs.charge_p50_ms":           {percentile(charges, 50), "ms"},
		"jobs.charge_p99_ms":           {percentile(charges, 99), "ms"},
		"jobs.charges":                 {float64(len(charges)), "count"},
		"jobs.mark_commit_p50_ms":      {percentile(marks, 50), "ms"},
		"jobs.mark_commit_p99_ms":      {percentile(marks, 99), "ms"},
		"jobs.mark_commits":            {float64(len(marks)), "count"},
		"jobs.commit_busy_share":       {ratio(busy(spans, "jobs.charge", "jobs.mark_commit").Seconds(), wall), "ratio"},
		"jobs.wal_appends_per_job":     {ratio(walAppends, jobs), "count"},
		"jobstore.fsyncs_per_job":      {ratio(fsyncs, jobs), "count"},
		"jobstore.checkpoints":         {checkpoints, "count"},
		"tsa.match_phase_s":            {phases[0], "s"},
		"scheduler.flush_s":            {phases[1], "s"},
		"jobs.settle_phase_s":          {phases[2], "s"},
		"harness.wall_s":               {wall, "s"},
		"harness.phase_sum_ratio":      {ratio(phases[0]+phases[1]+phases[2], wall), "ratio"},
		"scheduler.questions_enqueued": {enqueued, "count"},
		"scheduler.dedup_saved_ratio":  {ratio(deduped, enqueued), "ratio"},
		"scheduler.cache_hit_ratio":    {ratio(cacheHits, enqueued), "ratio"},
		"crowd.assignments":            {assignments, "count"},
		"engine.votes_per_question":    {ratio(votes, slots), "count"},
		"enum.batches_per_job":         {ratio(batches, jobs), "count"},
		"standing.windows_closed":      {windows, "count"},
		"standing.loss_ratio":          {ratio(loss, seen), "ratio"},
		"harness.gen_late_p99_ms":      {percentile(late, 99), "ms"},
		"harness.error_rate":           {ratio(float64(s.failed), float64(s.attempted)), "ratio"},
		"harness.trace_overhead_pct":   {overhead, "%"},
	}
}

// growthPct is how much larger a is than b, in percent of b.
func growthPct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a/b - 1)
}

// writeSpans writes the traced iterations' spans, one JSON object per
// line, to one file per run under dir.
func writeSpans(dir, workload string, seed uint64, iters []*iterResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, it := range iters {
		if it.tr == nil {
			continue
		}
		for _, s := range it.tr.recorded() {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printTable(w io.Writer, wl workload, seed uint64, s summary, metrics map[string]metric) {
	fmt.Fprintf(w, "workload %s seed %d: %d operations attempted, %d failed, results hash %s\n",
		wl.name, seed, s.attempted, s.failed, s.hash)
	for _, group := range []struct {
		metrics map[string]metric
		note    string
	}{{metrics, ""}, {s.ungated, " (not gated)"}} {
		names := make([]string, 0, len(group.metrics))
		for n := range group.metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-30s %14.6g %s%s\n", n, group.metrics[n].Value, group.metrics[n].Unit, group.note)
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank percentile; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
