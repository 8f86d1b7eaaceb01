package main

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"

	"repro/internal/assigner"
	"repro/internal/failover"
	"repro/internal/serve"
)

// Run shape, tuned on a 2-core host (METRICS.md gives the measurements).
const (
	// setupReps fresh set-ups are timed per run; setup_s is their median.
	// One set-up takes 20-40 ms, and single samples swing by 2x.
	setupReps = 15
	// Timed units of each CPU-bound layer set when it is the light one,
	// after one untimed warm-up unit. The workload's heavy set gets the
	// rest of the --seconds window, and at least as many units.
	minPlanUnits = 7
	minGenUnits  = 8
	// serveSweeps sweeps run in every run, apart in time, and are pooled.
	serveSweeps = 2
	// warmReplans repeats each warm replan, whose single sample is
	// only ~100 µs.
	warmReplans = 5
)

// sweepRates are the fixed open-loop rates (req/s). They straddle the
// knee: some rate must meet the SLO and the highest must miss it. The
// knee sits near 250-275 req/s and moves with host speed, and
// attainment falls off a cliff there, so the rates around it are 25
// req/s apart: with 50 req/s steps goodput jumped between ~200 and ~250.
var sweepRates = []int{150, 225, 250, 275, 300, 325, 400}

// refRate is the rate below the knee where TTFT and token gaps are
// reported. It gets refRequests requests per sweep; pooled over the
// run's sweeps, the ~10 streams one host stall can push past the SLO stay
// under 1%. Every other rate runs for rateWindow per sweep, long enough
// for an overload to build a queue.
const (
	refRate     = 150
	refRequests = 800
	rateWindow  = 1.0 // seconds
)

// state is what one fresh set-up builds: the 11 planning specs, the
// quantized pipeline, and the serving options.
type state struct {
	specs []*assigner.Spec
	gen   genState
	opts  serve.Options
}

// newState performs one complete set-up. The server is built and closed
// to time its construction; each serve unit builds its own.
func newState(cfg config, bounds, bits []int) (state, error) {
	specs, err := planSetup(cfg.seed)
	if err != nil {
		return state{}, err
	}
	gen, err := genSetup(bounds, bits, cfg.seed)
	if err != nil {
		return state{}, err
	}
	opts, err := serveOptions(cfg.seed)
	if err != nil {
		return state{}, err
	}
	srv, err := serve.New(opts)
	if err != nil {
		return state{}, err
	}
	if err := srv.Close(); err != nil {
		return state{}, err
	}
	return state{specs: specs, gen: gen, opts: opts}, nil
}

// setUp times setupReps fresh set-ups and keeps the last. It probes the
// host's speed after each one.
func setUp(cfg config) (st state, secs, probes []float64, err error) {
	if err := checkRoot(cfg.root); err != nil {
		return state{}, nil, nil, err
	}
	bounds, bits, err := genShape(cfg.root)
	if err != nil {
		return state{}, nil, nil, err
	}
	for i := 0; i < setupReps; i++ {
		st = state{}
		runtime.GC()
		t0 := time.Now()
		st, err = newState(cfg, bounds, bits)
		if err != nil {
			return state{}, nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		probes = append(probes, probeHost())
	}
	return st, secs, probes, nil
}

func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// planAcc accumulates the planning set's timed units.
type planAcc struct {
	first  []*assigner.Plan
	simTok float64
	cases  []replanCase
	passS  []float64
	coldMs []float64 // per unit: mean over the unit's cold replans
	warmUs []float64 // per unit: mean over the unit's warm replans
}

// unit runs one planning pass (timed by planTimer) and the cold and warm
// replans of every multi-stage plan (timed by replanTimer). Unit 0 is
// the warm-up: it fixes the reference plans and seeds the warm caches,
// and its times are dropped.
func (a *planAcc) unit(tr *tracer, st state, planTimer, replanTimer assigner.LayerTimer, g *gates, n int) (planPass, error) {
	t0 := time.Now()
	pp, err := runPlanPass(tr, st.specs, planTimer, n)
	if err != nil {
		return pp, err
	}
	passS := time.Since(t0).Seconds()
	if a.first == nil {
		a.first, a.simTok = pp.plans, geomean(pp.simTok)
		if a.cases, err = replanCases(st.specs, pp.plans, replanTimer); err != nil {
			return pp, err
		}
	} else {
		g.check(fmt.Sprintf("planning pass %d equals pass 0", n), samePlans(pp.plans, a.first))
	}
	var cold, warm []float64
	for _, c := range a.cases {
		sp := tr.begin("failover.Replan.cold", 0, n)
		t0 := time.Now()
		co, err := failover.Replan(c.spec, c.plan, replanTimer, c.lost, nil, nil, nil)
		cold = append(cold, ms(time.Since(t0)))
		sp.end()
		if err != nil {
			return pp, err
		}
		for k := 0; k < warmReplans; k++ {
			sp := tr.begin("failover.Replan.warm", 0, n)
			t0 := time.Now()
			wo, err := failover.Replan(c.warm, c.plan, replanTimer, c.lost, nil, nil, nil)
			warm = append(warm, us(time.Since(t0)))
			sp.end()
			if err != nil {
				return pp, err
			}
			if k == 0 {
				g.check(fmt.Sprintf("warm replan of %s equals cold", c.spec.Cluster.Name), sameOutcome(wo, co))
			}
		}
	}
	if n > 0 {
		a.passS = append(a.passS, passS)
		a.coldMs = append(a.coldMs, mean(cold))
		a.warmUs = append(a.warmUs, mean(warm))
	}
	return pp, nil
}

func samePlans(got, want []*assigner.Plan) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d plans, want %d", len(got), len(want))
	}
	for i := range got {
		if !samePlan(got[i], want[i]) {
			return fmt.Errorf("plan %d differs: %+v vs %+v", i, *got[i], *want[i])
		}
	}
	return nil
}

func sameOutcome(warm, cold *failover.Outcome) error {
	if !samePlan(warm.Plan, cold.Plan) || warm.MovedLayers != cold.MovedLayers ||
		!reflect.DeepEqual(warm.Migration, cold.Migration) || !reflect.DeepEqual(warm.OldID, cold.OldID) {
		return fmt.Errorf("warm %+v (moved %d) vs cold %+v (moved %d)", *warm.Plan, warm.MovedLayers, *cold.Plan, cold.MovedLayers)
	}
	return nil
}

// genAcc accumulates the pipeline set's timed units.
type genAcc struct {
	want      [][]int // single-process greedy reference, prompt included
	tokS      []float64
	prefillMs []float64
}

// unit runs one full-batch Generate and two 1-token Generates, each
// checked against the reference. Unit 0 is the warm-up.
func (a *genAcc) unit(tr *tracer, st state, g *gates, n int) error {
	gs := st.gen
	if a.want == nil {
		outs := make([][]int, len(gs.prompts))
		for r, p := range gs.prompts {
			toks, err := greedyReference(gs.model, p, genNewTokens)
			if err != nil {
				return err
			}
			outs[r] = append(append([]int(nil), p...), toks...)
		}
		a.want = outs
	}
	sp := tr.begin("runtime.Pipeline.Generate", 0, n)
	t0 := time.Now()
	outs, err := gs.pipe.Generate(gs.prompts, genNewTokens)
	dt := time.Since(t0)
	sp.end()
	if err != nil {
		return err
	}
	g.check(fmt.Sprintf("pipeline generate %d equals greedy reference", n), sameTokens(outs, a.want, genNewTokens))
	if n > 0 {
		a.tokS = append(a.tokS, float64(len(gs.prompts)*genNewTokens)/dt.Seconds())
	}
	for k := 0; k < 2; k++ {
		sp := tr.begin("runtime.Pipeline.Generate", 0, n)
		t0 := time.Now()
		first, err := gs.pipe.Generate(gs.prompts, 1)
		pf := time.Since(t0)
		sp.end()
		if err != nil {
			return err
		}
		g.check(fmt.Sprintf("pipeline prefill %d.%d equals greedy reference", n, k), sameTokens(first, a.want, 1))
		if n > 0 {
			a.prefillMs = append(a.prefillMs, ms(pf))
		}
	}
	return nil
}

// sameTokens compares outputs with the first k new tokens of want.
func sameTokens(got, want [][]int, k int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d outputs, want %d", len(got), len(want))
	}
	for r := range got {
		p := len(want[r]) - genNewTokens
		if !reflect.DeepEqual(got[r], want[r][:p+k]) {
			return fmt.Errorf("request %d: %v, want %v", r, got[r][p:], want[r][p:p+k])
		}
	}
	return nil
}

// serveAcc pools the run's sweeps: per rate, the requests sent and those
// meeting the SLO; at the reference rate, every TTFT and token gap.
// Pooling spreads each rate's samples over the run, so one slow stretch of
// the host cannot decide a rate alone.
type serveAcc struct {
	pooled        []rateResult // per sweep rate: sent and met summed
	ttftMs, gapMs []float64
}

func (a *serveAcc) add(rates []rateResult) {
	if a.pooled == nil {
		a.pooled = make([]rateResult, len(rates))
	}
	for i, r := range rates {
		a.pooled[i].rate = r.rate
		a.pooled[i].sent += r.sent
		a.pooled[i].met += r.met
		if r.rate == refRate {
			a.ttftMs = append(a.ttftMs, r.ttftMs...)
			a.gapMs = append(a.gapMs, r.gapMs...)
		}
	}
}

// sweep runs every rate once, each from its own seeded trace, and gates
// that every 200 stream was correct.
func sweep(tr *tracer, opts serve.Options, seed int64, n int, g *gates, log io.Writer) ([]rateResult, error) {
	var rates []rateResult
	for i, rate := range sweepRates {
		count := int(float64(rate) * rateWindow)
		if rate == refRate {
			count = refRequests
		}
		reqs := openLoopTrace(rate, count, seed*1000003+int64(n*len(sweepRates)+i))
		res, err := runRate(tr, opts, reqs, rate)
		if err != nil {
			return rates, err
		}
		fmt.Fprintf(log, "serve sweep %d rate %d req/s: sent %d succeeded %d refused %d failed %d invalid %d slo %.4f (missed ttft %d, gap %d) late p50 %.3f ms p99 %.3f ms max %.3f ms\n",
			n, rate, res.sent, res.succeeded, res.refused, res.failed, res.invalid, res.attainment(), res.missTTFT, res.missGap,
			median(res.lateMs), quantile(res.lateMs, 0.99), quantile(res.lateMs, 1))
		g.check(fmt.Sprintf("sweep %d rate %d: every 200 stream ends with [DONE] and max_tokens tokens", n, rate),
			countErr(res.invalid, "invalid streams, first: "+res.firstBad))
		rates = append(rates, res)
	}
	return rates, nil
}

// straddle is the knee gate over pooled rates: some rate must meet the
// SLO and the highest must miss it, so goodput lies inside the sweep.
func straddle(rates []rateResult) error {
	top := rates[len(rates)-1]
	if goodput(rates) == 0 || top.attainment() >= sloShare {
		return fmt.Errorf("SLO attainment %.4f at %d req/s (lowest) and %.4f at %d req/s (highest): goodput %.1f does not lie inside the sweep",
			rates[0].attainment(), rates[0].rate, top.attainment(), top.rate, goodput(rates))
	}
	return nil
}

func countErr(n int, what string) error {
	if n > 0 {
		return fmt.Errorf("%d %s", n, what)
	}
	return nil
}

// goodput is the highest swept rate whose SLO attainment reaches
// sloShare, linearly interpolated toward the next higher rate by how much
// attainment margin it had. Taking the highest passing rate, not the one
// below the first failure, keeps one stall at a lower rate from dragging
// the figure down. It is 0 when no rate passes, which the straddle gate
// reports as a failure.
func goodput(rates []rateResult) float64 {
	best := -1
	for i, r := range rates {
		if r.attainment() >= sloShare {
			best = i
		}
	}
	switch {
	case best < 0:
		return 0
	case best == len(rates)-1:
		return float64(rates[best].rate)
	}
	p, r := rates[best], rates[best+1]
	frac := (p.attainment() - sloShare) / (p.attainment() - r.attainment())
	return float64(p.rate) + frac*float64(r.rate-p.rate)
}

// runMeasured is the untraced run: set-up, gates, one warm-up unit per
// layer set, then the sweeps, the light set's units and the heavy set's
// units over --seconds.
func runMeasured(cfg config, g *gates, log io.Writer) (map[string]metric, error) {
	st, setups, probes, err := setUp(cfg)
	if err != nil {
		return nil, err
	}
	heap := heapMB()
	for _, gc := range goldenCases {
		g.check("golden plan "+gc.name, checkGolden(cfg.root, gc))
	}

	timer := assigner.ProfilerTimer{}
	var pa planAcc
	var ga genAcc
	var sa serveAcc
	units := map[string]int{}
	step := func(part string) error {
		n := units[part]
		units[part]++
		switch part {
		case partPlan:
			_, err := pa.unit(nil, st, timer, timer, g, n)
			return err
		case partGen:
			return ga.unit(nil, st, g, n)
		default:
			if n == 0 { // warm-up: a short burst at the reference rate
				_, err := runRate(nil, st.opts, openLoopTrace(refRate, 100, cfg.seed), refRate)
				return err
			}
			rates, err := sweep(nil, st.opts, cfg.seed, n, g, log)
			sa.add(rates)
			return err
		}
	}
	for _, part := range []string{partPlan, partGen, partServe} {
		if err := step(part); err != nil { // warm-up units
			return nil, err
		}
	}
	light, minLight := partGen, minGenUnits
	if cfg.heavy == partGen {
		light, minLight = partPlan, minPlanUnits
	}
	// The light set's units and the sweeps are spread evenly over the
	// window, and the heavy set fills the time between them, so every
	// figure samples the whole run: this host's speed drifts over tens of
	// seconds. The heavy set starts a unit only while at least half of
	// one still fits; past the window, whatever is still owed runs.
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	lightDue := func(k int) time.Duration { return window * time.Duration(k) / time.Duration(minLight) }
	sweepDue := func(k int) time.Duration { return window * time.Duration(2*k+1) / time.Duration(2*serveSweeps) }
	var unitDur time.Duration
	for {
		el := time.Since(start)
		lightLeft, sweepsLeft := units[light] <= minLight, units[partServe] <= serveSweeps
		heavyFits := el+unitDur/2 < window || units[cfg.heavy] <= minLight
		var part string
		switch {
		case sweepsLeft && (el >= sweepDue(units[partServe]-1) || !heavyFits):
			part = partServe
		case lightLeft && (el >= lightDue(units[light]-1) || !heavyFits):
			part = light
		case heavyFits:
			part = cfg.heavy
		}
		if part == "" {
			break
		}
		t0 := time.Now()
		if err := step(part); err != nil {
			return nil, err
		}
		if part == cfg.heavy {
			unitDur = time.Since(t0)
		}
		if part != partServe {
			probes = append(probes, probeHost())
		}
	}
	g.check("pooled sweeps straddle the knee", straddle(sa.pooled))
	for _, r := range sa.pooled {
		fmt.Fprintf(log, "pooled rate %d req/s: sent %d slo %.4f\n", r.rate, r.sent, r.attainment())
	}
	fmt.Fprintf(log, "units plan %d gen %d serve %d (each incl. 1 warm-up); setup_s samples %.4f\n",
		units[partPlan], units[partGen], units[partServe], setups)
	fmt.Fprintf(log, "per unit: plan_s %.3f; gen_tok_s %.0f; prefill_ms %.0f; goroutines %d\n", pa.passS, ga.tokS, ga.prefillMs, runtime.NumGoroutine())
	// The p95s and p99s are logged, not reported: in a stretch of host
	// stalls their spread over seeds reached 0.8 (TTFT p95) and 0.25 (gap
	// p95), against 0.33 and 0.08 for the p90s.
	fmt.Fprintf(log, "reference rate: %d TTFT samples, p90 %.3f p95 %.3f p99 %.3f ms; %d gaps, p90 %.3f p95 %.3f p99 %.3f ms\n",
		len(sa.ttftMs), quantile(sa.ttftMs, 0.9), quantile(sa.ttftMs, 0.95), quantile(sa.ttftMs, 0.99),
		len(sa.gapMs), quantile(sa.gapMs, 0.9), quantile(sa.gapMs, 0.95), quantile(sa.gapMs, 0.99))

	// CPU-bound figures are medians over the run's timed units (the
	// fastest unit, tried before, spread twice as much between processes
	// on this host), scaled to a host of reference speed: this shared
	// host's speed drifts by 15-20% within minutes and by 50% over hours,
	// and the drift moves every CPU-bound figure and the benchmark's own
	// probe kernels together. Scaling by the probe roughly halved the
	// spread over seeds. Serving figures
	// are percentiles over thousands of requests and are not scaled.
	speed := refProbeS / median(probes)
	raw := map[string]float64{
		"setup_s": median(setups), "plan_s": median(pa.passS), "replan_cold_ms": median(pa.coldMs),
		"replan_warm_us": median(pa.warmUs), "gen_tok_s": median(ga.tokS), "prefill_ms": median(ga.prefillMs),
	}
	fmt.Fprintf(log, "host probe: median %.6f s over %d probes, speed factor %.4f; raw medians: setup_s %.4f plan_s %.4f replan_cold_ms %.3f replan_warm_us %.2f gen_tok_s %.1f prefill_ms %.2f\n",
		median(probes), len(probes), speed, raw["setup_s"], raw["plan_s"], raw["replan_cold_ms"], raw["replan_warm_us"], raw["gen_tok_s"], raw["prefill_ms"])
	return map[string]metric{
		"setup_s":        {raw["setup_s"] * speed, "s"},
		"heap_mb":        {heap, "MB"},
		"plan_s":         {raw["plan_s"] * speed, "s"},
		"replan_cold_ms": {raw["replan_cold_ms"] * speed, "ms"},
		"replan_warm_us": {raw["replan_warm_us"] * speed, "us"},
		"plan_sim_tok_s": {pa.simTok, "tok/s"},
		"gen_tok_s":      {raw["gen_tok_s"] / speed, "tok/s"},
		"prefill_ms":     {raw["prefill_ms"] * speed, "ms"},
		"ttft_p50_ms":    {median(sa.ttftMs), "ms"},
		"ttft_p90_ms":    {quantile(sa.ttftMs, 0.9), "ms"},
		"itl_p50_ms":     {median(sa.gapMs), "ms"},
		"itl_p90_ms":     {quantile(sa.gapMs, 0.9), "ms"},
		"goodput_rps":    {goodput(sa.pooled), "req/s"},
	}, nil
}
