package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"time"

	"repro/internal/assigner"
	"repro/internal/costmodel"
	"repro/internal/failover"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/quant"
	"repro/internal/serve"
)

// Probe repetitions: each per-layer time is a median over this many calls.
const (
	probeReps      = 200
	layerProbeReps = 30
	planProbeReps  = 20
)

// runTraced is the traced run. Each layer set runs one warm-up unit, then
// alternating untraced and traced units; their ratio is the tracing
// overhead. Probes then time single layer calls. Every span is written as
// a Chrome trace under .bench_build/ at the end.
func runTraced(cfg config, g *gates, log io.Writer) (map[string]metric, error) {
	if err := checkRoot(cfg.root); err != nil {
		return nil, err
	}
	bounds, bits, err := genShape(cfg.root)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	st, err := newState(cfg, bounds, bits)
	if err != nil {
		return nil, err
	}
	// The set-up's quantizer share: re-apply the plan's bits (the weights
	// are requantized from their full-precision masters, so this is
	// exactly the call NewPipeline made).
	sp := tr.begin("quant.ApplyBitAssignment", 0, 0)
	t0 := time.Now()
	err = st.gen.model.ApplyBitAssignment(bits, quant.Deterministic, nil)
	put("quant.apply_bits_ms", ms(time.Since(t0)), "ms")
	sp.end()
	if err != nil {
		return nil, err
	}
	for _, gc := range goldenCases {
		g.check("golden plan "+gc.name, checkGolden(cfg.root, gc))
	}

	planOver, busy, err := tracePlan(tr, st, g, put)
	if err != nil {
		return nil, err
	}
	genOver, err := traceGen(tr, st, g, cfg.seed, put)
	if err != nil {
		return nil, err
	}
	serveOver, err := traceServe(tr, st, g, cfg.seed, log, put)
	if err != nil {
		return nil, err
	}

	// The profiler runs inside the traced units' assigner.Optimize and
	// failover.Replan spans, behind counting timers rather than spans:
	// its busy time moves from those layers to its own.
	self := tr.layerTimes(busy)
	for _, l := range traceLayers {
		put("self."+l+"_ms", ms(self[l]), "ms")
	}
	put("trace.overhead_plan_pct", 100*planOver, "%")
	put("trace.overhead_gen_pct", 100*genOver, "%")
	put("trace.overhead_serve_pct", 100*serveOver, "%")
	put("trace.spans", float64(tr.rec.Len()), "count")

	dir := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "trace written to %s\n", path)
	return m, nil
}

// tracePlan times the planning layers. It returns the tracing overhead on
// a planning unit and the profiler's busy time inside the assigner's and
// failover's spans.
func tracePlan(tr *tracer, st state, g *gates, put func(string, float64, string)) (float64, map[string]time.Duration, error) {
	var pa planAcc
	timer := assigner.ProfilerTimer{}
	if _, err := pa.unit(nil, st, timer, timer, g, 0); err != nil {
		return 0, nil, err
	}
	ctPlan, ctReplan := &countingTimer{}, &countingTimer{}
	var pp planPass
	var hits, lookups int64
	over, err := overhead(func(k int) error {
		_, err := pa.unit(nil, st, timer, timer, g, 1+2*k)
		return err
	}, func(k int) error {
		before := cacheStats(pa.cases)
		var err error
		pp, err = pa.unit(tr, st, ctPlan, ctReplan, g, 2+2*k)
		after := cacheStats(pa.cases)
		hits += after.Hits - before.Hits
		lookups += after.Hits + after.Misses - before.Hits - before.Misses
		return err
	})
	if err != nil {
		return 0, nil, err
	}
	// Counts are per traced unit.
	put("assigner.cache_lookups", float64(lookups)/tracePairs, "count")
	put("assigner.cache_hit_ratio", float64(hits)/float64(lookups), "ratio")
	calls := ctPlan.calls.Load() + ctReplan.calls.Load()
	put("profiler.layer_time_calls", float64(calls)/tracePairs, "count")
	put("profiler.layer_time_ns", float64(ctPlan.ns.Load()+ctReplan.ns.Load())/float64(calls), "ns")
	put("assigner.optimize_ms", median(pp.optimMs), "ms")
	put("runtime.engine_run_ms", median(pp.engMs), "ms")
	put("runtime.engine_events", float64(pp.events), "count")

	// Single-call probes over every cluster.
	var build, eval, inc, mig []float64
	for i, s := range st.specs {
		p := pa.first[i]
		for _, mb := range s.PrefillMicroBatches {
			sp := tr.begin("assigner.BuildTables", 0, i)
			t0 := time.Now()
			_, err := assigner.BuildTables(s, timer, mb)
			build = append(build, ms(time.Since(t0)))
			sp.end()
			if err != nil {
				return 0, nil, err
			}
		}
		tables, err := assigner.BuildTables(s, timer, p.PrefillMB)
		if err != nil {
			return 0, nil, err
		}
		for k := 0; k < planProbeReps; k++ {
			sp := tr.begin("assigner.Evaluate", 0, i)
			t0 := time.Now()
			_, err := assigner.Evaluate(tables, p)
			eval = append(eval, us(time.Since(t0)))
			sp.end()
			if err != nil {
				return 0, nil, err
			}
		}
	}
	for i, c := range pa.cases {
		out, err := failover.Replan(c.spec, c.plan, timer, c.lost, nil, nil, nil)
		if err != nil {
			return 0, nil, err
		}
		in := migrationInput(c, out)
		mb, err := costmodel.MigrationCost(in)
		g.check("migration input of "+c.spec.Cluster.Name+" matches failover's", sameMigration(mb, out.Migration, err))
		for k := 0; k < planProbeReps; k++ {
			sp := tr.begin("failover.SurvivorIncumbent", 0, i)
			t0 := time.Now()
			failover.SurvivorIncumbent(c.plan, out.OldID, out.Degraded)
			inc = append(inc, us(time.Since(t0)))
			sp.end()
			sp = tr.begin("costmodel.MigrationCost", 0, i)
			t0 = time.Now()
			_, err := costmodel.MigrationCost(in)
			mig = append(mig, us(time.Since(t0)))
			sp.end()
			if err != nil {
				return 0, nil, err
			}
		}
	}
	put("assigner.build_tables_ms", median(build), "ms")
	put("assigner.evaluate_us", median(eval), "us")
	put("failover.survivor_incumbent_us", median(inc), "us")
	put("costmodel.migration_us", median(mig), "us")
	busy := map[string]time.Duration{
		"assigner": time.Duration(ctPlan.ns.Load()),
		"failover": time.Duration(ctReplan.ns.Load()),
	}
	return over, busy, nil
}

// tracePairs untraced/traced unit pairs estimate the tracing overhead;
// a single pair swung by ±15%.
const tracePairs = 3

// overhead runs an untraced and a traced unit alternately tracePairs
// times and returns median(traced) / median(untraced) − 1.
func overhead(plain, traced func(k int) error) (float64, error) {
	var p, t []float64
	for k := 0; k < tracePairs; k++ {
		t0 := time.Now()
		if err := plain(k); err != nil {
			return 0, err
		}
		p = append(p, time.Since(t0).Seconds())
		t0 = time.Now()
		if err := traced(k); err != nil {
			return 0, err
		}
		t = append(t, time.Since(t0).Seconds())
	}
	return median(t)/median(p) - 1, nil
}

func sameMigration(got, want costmodel.MigrationBreakdown, err error) error {
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("priced %+v, failover priced %+v", got, want)
	}
	return nil
}

func cacheStats(cases []replanCase) assigner.CacheStats {
	var s assigner.CacheStats
	for _, c := range cases {
		cs := c.warm.Cache.Stats()
		s.Hits += cs.Hits
		s.Misses += cs.Misses
	}
	return s
}

// traceGen times the inference layers and returns the tracing overhead
// on a pipeline unit.
func traceGen(tr *tracer, st state, g *gates, seed int64, put func(string, float64, string)) (float64, error) {
	var ga genAcc
	if err := ga.unit(nil, st, g, 0); err != nil {
		return 0, err
	}
	reg := obs.NewRegistry()
	over, err := overhead(func(k int) error {
		return ga.unit(nil, st, g, 1+2*k)
	}, func(k int) error {
		st.gen.pipe.Instrument(reg, nil)
		defer st.gen.pipe.Instrument(nil, nil)
		return ga.unit(tr, st, g, 2+2*k)
	})
	if err != nil {
		return 0, err
	}
	// Stage times are per traced unit.
	compute, recv, send := pipelineStages(reg, st.gen.stages)
	sum, peak := 0.0, 0.0
	for j := range compute {
		sfx := ".s" + strconv.Itoa(j)
		put("runtime.pipeline_compute_s"+sfx, compute[j]/tracePairs, "s")
		put("runtime.pipeline_recv_wait_s"+sfx, recv[j]/tracePairs, "s")
		put("runtime.pipeline_send_wait_s"+sfx, send[j]/tracePairs, "s")
		sum += compute[j]
		peak = max(peak, compute[j])
	}
	put("runtime.pipeline_imbalance", peak/(sum/float64(len(compute))), "ratio")

	rng := rand.New(rand.NewSource(seed))
	prefillRows := 0
	for _, p := range st.gen.prompts {
		prefillRows += len(p)
	}
	prefillRows /= len(st.gen.prompts)
	for _, ph := range []struct {
		name string
		rows int
	}{{"prefill", prefillRows}, {"decode", 1}} {
		sp := tr.begin("tensor.MatMul", 0, 0)
		mp, err := probeMatMul(ph.rows, probeReps, rng)
		sp.end()
		if err != nil {
			return 0, err
		}
		put("tensor.matmul_"+ph.name+"_us", mp.us, "us")
		put("tensor.matmul_"+ph.name+"_flops_computed", mp.flops, "flop")
		put("tensor.matmul_"+ph.name+"_bytes_computed", mp.bytesMov, "B")
	}
	probe, err := nn.New(nn.TinyOPT, seed)
	if err != nil {
		return 0, err
	}
	for _, b := range []int{16, 8, 4, 3} {
		sp := tr.begin("nn.ForwardRange", 0, b)
		pre, dec, err := layerProbe(probe, b, prefillRows, layerProbeReps, rng)
		sp.end()
		if err != nil {
			return 0, err
		}
		sfx := ".b" + strconv.Itoa(b)
		put("nn.layer_prefill_us"+sfx, pre, "us")
		put("nn.layer_decode_us"+sfx, dec, "us")
	}
	x, err := probe.EmbedTokens(st.gen.prompts[0][:1], 0)
	if err != nil {
		return 0, err
	}
	var logits []float64
	for k := 0; k < probeReps; k++ {
		sp := tr.begin("nn.Logits", 0, k)
		t0 := time.Now()
		_, err := probe.Logits(x)
		logits = append(logits, us(time.Since(t0)))
		sp.end()
		if err != nil {
			return 0, err
		}
	}
	put("nn.logits_us", median(logits), "us")
	return over, nil
}

// traceServe times the serving layers and returns the tracing overhead
// on the median TTFT at the reference rate.
func traceServe(tr *tracer, st state, g *gates, seed int64, log io.Writer, put func(string, float64, string)) (float64, error) {
	if _, err := runRate(nil, st.opts, openLoopTrace(refRate, 100, seed), refRate); err != nil {
		return 0, err
	}
	plain, err := sweep(nil, st.opts, seed, 1, g, log)
	if err != nil {
		return 0, err
	}
	traced, err := sweep(tr, st.opts, seed, 2, g, log)
	if err != nil {
		return 0, err
	}
	var sa serveAcc
	sa.add(plain)
	sa.add(traced)
	g.check("pooled sweeps straddle the knee", straddle(sa.pooled))
	var late, scrape, simWrite []float64
	for _, r := range traced {
		put("serve.shed_ratio.r"+strconv.Itoa(r.rate), float64(r.refused)/float64(r.sent), "ratio")
		scrape = append(scrape, r.scrapeMs...)
		simWrite = append(simWrite, r.simWriteUs)
		if r.rate == refRate {
			late = r.lateMs
			put("serve.frames_per_request", float64(r.frames)/float64(r.succeeded), "count")
			put("serve.bytes_per_token", float64(r.bytes)/float64(r.tokens), "B")
		}
	}
	put("serve.gen_late_ms", quantile(late, 0.99), "ms")
	put("obs.scrape_ms", median(scrape), "ms")
	put("obs.sim_write_us", median(simWrite), "us")

	sub, step, batch, err := driveOnline(tr, st.opts, openLoopTrace(refRate, refRequests, seed))
	if err != nil {
		return 0, err
	}
	put("online.submit_us", sub, "us")
	put("online.step_us", step, "us")
	put("online.batch_per_step", batch, "count")

	ttft := func(rates []rateResult) float64 {
		for _, r := range rates {
			if r.rate == refRate {
				return median(r.ttftMs)
			}
		}
		return 0
	}
	return ttft(traced)/ttft(plain) - 1, nil
}

// driveOnline replays an arrival trace straight into an online.Engine,
// in simulated time, timing Submit and StepOnce.
func driveOnline(tr *tracer, opts serve.Options, reqs []serveReq) (submitUs, stepUs, batch float64, err error) {
	eng, err := online.NewEngine(opts.Engine)
	if err != nil {
		return 0, 0, 0, err
	}
	var sub, step []float64
	stepOnce := func() error {
		sp := tr.begin("online.StepOnce", 0, 0)
		t0 := time.Now()
		_, err := eng.StepOnce()
		step = append(step, us(time.Since(t0)))
		sp.end()
		return err
	}
	for i, r := range reqs {
		for eng.Busy() && eng.Now() < r.due.Seconds() {
			if err := stepOnce(); err != nil {
				return 0, 0, 0, err
			}
		}
		sp := tr.begin("online.Submit", 0, i)
		t0 := time.Now()
		_, err := eng.Submit(r.prompt, r.maxTok)
		sub = append(sub, us(time.Since(t0)))
		sp.end()
		if err != nil && !errors.Is(err, online.ErrShed) {
			return 0, 0, 0, err
		}
	}
	for eng.Busy() {
		if err := stepOnce(); err != nil {
			return 0, 0, 0, err
		}
	}
	return median(sub), median(step), eng.Stats().MeanBatch, nil
}
