package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	goruntime "runtime"
	"sync/atomic"
	"time"

	"repro/internal/assigner"
	"repro/internal/core/floats"
	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/failover"
	"repro/internal/hardware"
	"repro/internal/indicator"
	"repro/internal/model"
	"repro/internal/profiler"
	rt "repro/internal/runtime"
)

// numClusters is the Table-3 cluster count the cold planning sweep covers.
const numClusters = 11

// planWork is the paper's default task (batch 32, 100 generated tokens)
// with prompts of 480 rather than 512 tokens: solved by the DP, clusters
// 3 and 4 have no feasible plan for 512 once they lose their last stage.
var planWork = assigner.Workload{GlobalBatch: 32, Prompt: 480, Generate: 100}

// countingTimer is the profiler's analytic timer with a call counter and
// a busy-time clock around it. It forwards CacheKey, so the solve cache
// treats it exactly like assigner.ProfilerTimer.
type countingTimer struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (c *countingTimer) Layer(gpu hardware.GPU, cfg model.Config, w profiler.Workload) (float64, error) {
	t0 := time.Now()
	v, err := assigner.ProfilerTimer{}.Layer(gpu, cfg, w)
	c.ns.Add(int64(time.Since(t0)))
	c.calls.Add(1)
	return v, err
}

func (c *countingTimer) CacheKey() string { return assigner.ProfilerTimer{}.CacheKey() }

// planSetup builds the 11 cluster specs for the paper's default task,
// all solved by the exact DP, in an order shuffled by the seed. The
// order changes no plan; it only changes which solve warms which cache
// line first.
func planSetup(seed int64) ([]*assigner.Spec, error) {
	specs := make([]*assigner.Spec, numClusters)
	for i, id := range rand.New(rand.NewSource(seed)).Perm(numClusters) {
		s, err := experiments.SpecFor(id+1, planWork)
		if err != nil {
			return nil, err
		}
		s.Method = assigner.MethodDP
		s.Parallelism = goruntime.NumCPU()
		specs[i] = s
	}
	return specs, nil
}

// planPass is one cold planning sweep: Optimize then simulate every
// cluster. It returns the plans and each plan's simulated throughput.
type planPass struct {
	plans   []*assigner.Plan
	simTok  []float64
	events  int
	optimMs []float64
	engMs   []float64
}

func runPlanPass(tr *tracer, specs []*assigner.Spec, timer assigner.LayerTimer, pass int) (planPass, error) {
	root := tr.begin("bench.plan_pass", 0, pass)
	defer root.end()
	var out planPass
	for _, s := range specs {
		sp := tr.begin("assigner.Optimize", root.id, pass)
		t0 := time.Now()
		res, err := assigner.Optimize(s, timer)
		out.optimMs = append(out.optimMs, ms(time.Since(t0)))
		sp.end()
		if err != nil {
			return out, fmt.Errorf("plan %s: %w", s.Cluster.Name, err)
		}
		// The simulator keeps the plain timer: a counting timer here
		// counts only the solver's profiler calls.
		eng, err := rt.NewEngine(s, res.Plan, assigner.ProfilerTimer{})
		if err != nil {
			return out, err
		}
		sp = tr.begin("runtime.Engine.Run", root.id, pass)
		t0 = time.Now()
		st, err := eng.Run()
		out.engMs = append(out.engMs, ms(time.Since(t0)))
		sp.end()
		if err != nil {
			return out, fmt.Errorf("simulate %s: %w", s.Cluster.Name, err)
		}
		out.plans = append(out.plans, res.Plan)
		out.simTok = append(out.simTok, st.Throughput)
		out.events += st.Events
	}
	return out, nil
}

// lossOf is the loss the replans recover from: the plan's last stage
// dies halfway through decode.
func lossOf(s *assigner.Spec, p *assigner.Plan) *rt.DeviceLostError {
	last := p.NumStages() - 1
	wm := s.Work.Generate / 2
	return &rt.DeviceLostError{
		Stage: last, Device: p.Order[last], AtSec: 1,
		Watermark: wm, DurableTokens: wm * s.Work.GlobalBatch, PrefillDone: true,
	}
}

// replanCase is one multi-stage plan with its loss and a solve cache
// seeded by one earlier replan of the same loss.
type replanCase struct {
	spec, warm *assigner.Spec
	plan       *assigner.Plan
	lost       *rt.DeviceLostError
}

func replanCases(specs []*assigner.Spec, plans []*assigner.Plan, timer assigner.LayerTimer) ([]replanCase, error) {
	var out []replanCase
	for i, p := range plans {
		if p.NumStages() < 2 {
			continue
		}
		warm := *specs[i]
		warm.Cache = assigner.NewSolveCache()
		c := replanCase{spec: specs[i], warm: &warm, plan: p, lost: lossOf(specs[i], p)}
		if _, err := failover.Replan(c.warm, c.plan, timer, c.lost, nil, nil, nil); err != nil {
			return nil, fmt.Errorf("seed cache for %s: %w", specs[i].Cluster.Name, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// samePlan is the plan-equality gate: order, boundaries, bits, micro-
// batches and objective.
func samePlan(a, b *assigner.Plan) bool {
	return reflect.DeepEqual(a.Order, b.Order) && reflect.DeepEqual(a.Boundaries, b.Boundaries) &&
		reflect.DeepEqual(a.GroupBits, b.GroupBits) && a.PrefillMB == b.PrefillMB && a.DecodeMB == b.DecodeMB &&
		floats.EqTol(a.Objective, b.Objective, 1e-9)
}

// goldenPlan mirrors the fixture format under internal/assigner/testdata/golden.
type goldenPlan struct {
	Order      []int   `json:"order"`
	Boundaries []int   `json:"boundaries"`
	GroupBits  []int   `json:"group_bits"`
	PrefillMB  int     `json:"prefill_mb"`
	DecodeMB   int     `json:"decode_mb"`
	Objective  float64 `json:"objective"`
}

// goldenCase is one fixture and the instance that produced it (the same
// instances the assigner's golden tests solve).
type goldenCase struct {
	name    string
	cluster int
	model   string
	group   int
}

var goldenCases = []goldenCase{
	{"cluster3-opt-30b", 3, "opt-30b", 4},
	{"cluster3-opt-13b", 3, "opt-13b", 4},
	{"cluster9-opt-30b", 9, "opt-30b", 4},
	{"cluster9-opt-13b", 9, "opt-13b", 4},
	{"cluster10-opt-66b", 10, "opt-66b", 8},
	{"cluster10-opt-30b", 10, "opt-30b", 8},
}

func goldenDir(root string) string {
	return filepath.Join(root, "internal", "assigner", "testdata", "golden")
}

func loadGolden(root, name string) (goldenPlan, error) {
	var g goldenPlan
	b, err := os.ReadFile(filepath.Join(goldenDir(root), name+".json"))
	if err != nil {
		return g, err
	}
	if err := json.Unmarshal(b, &g); err != nil {
		return g, fmt.Errorf("golden %s: %w", name, err)
	}
	return g, nil
}

func goldenSpec(gc goldenCase) (*assigner.Spec, error) {
	cl, err := hardware.ClusterByID(gc.cluster)
	if err != nil {
		return nil, err
	}
	cfg, err := model.ByName(gc.model)
	if err != nil {
		return nil, err
	}
	bits := []int{3, 4, 8, 16}
	return &assigner.Spec{
		Cfg: cfg, Cluster: cl,
		Work:   assigner.Workload{GlobalBatch: 32, Prompt: 512, Generate: 80},
		Bits:   bits,
		Omega:  assigner.GroupOmega(indicator.Synthetic(cfg, bits, 42), gc.group),
		Theta:  0.1,
		Group:  gc.group,
		Method: assigner.MethodDP,
	}, nil
}

// checkGolden re-solves one fixture's instance; a nil error means the
// plan matches the fixture exactly.
func checkGolden(root string, gc goldenCase) error {
	want, err := loadGolden(root, gc.name)
	if err != nil {
		return err
	}
	s, err := goldenSpec(gc)
	if err != nil {
		return err
	}
	res, err := assigner.Optimize(s, nil)
	if err != nil {
		return err
	}
	got := &assigner.Plan{Order: res.Plan.Order, Boundaries: res.Plan.Boundaries, GroupBits: res.Plan.GroupBits,
		PrefillMB: res.Plan.PrefillMB, DecodeMB: res.Plan.DecodeMB, Objective: res.Plan.Objective}
	exp := &assigner.Plan{Order: want.Order, Boundaries: want.Boundaries, GroupBits: want.GroupBits,
		PrefillMB: want.PrefillMB, DecodeMB: want.DecodeMB, Objective: want.Objective}
	if !samePlan(got, exp) {
		return fmt.Errorf("golden %s: got order %v bounds %v bits %v obj %.9f, want %v %v %v %.9f", gc.name,
			got.Order, got.Boundaries, got.GroupBits, got.Objective, exp.Order, exp.Boundaries, exp.GroupBits, exp.Objective)
	}
	return nil
}

// migrationInput is the input failover.Replan prices after a replan: the
// layers whose device changed, at the new plan's bits, and the KV state
// up to the watermark when prefill had finished.
func migrationInput(c replanCase, out *failover.Outcome) costmodel.MigrationInput {
	layers := c.spec.Cfg.Layers
	oldHome, newHome := layerHomes(c.plan, layers, nil), layerHomes(out.Plan, layers, out.OldID)
	newBits := out.Plan.LayerBits(layers)
	var moved []int
	for l := range layers {
		if newHome[l] != oldHome[l] {
			moved = append(moved, newBits[l])
		}
	}
	kvSeq := 0
	if c.lost.PrefillDone {
		kvSeq = c.spec.Work.Prompt + c.lost.Watermark
	}
	return costmodel.MigrationInput{
		Cfg: c.spec.Cfg, MovedLayerBits: moved, GlobalBatch: c.spec.Work.GlobalBatch,
		KVSeqLen: kvSeq, KVBits: c.spec.KVBits, Link: c.spec.Cluster.InterNode,
	}
}

// layerHomes maps each layer to the original-cluster device that holds it
// under p; idMap maps p's device ids back to the original ones.
func layerHomes(p *assigner.Plan, layers int, idMap []int) []int {
	home := make([]int, layers)
	g := max(p.Group, 1)
	for j, dev := range p.Order {
		if idMap != nil {
			dev = idMap[dev]
		}
		for l := p.Boundaries[j] * g; l < min(p.Boundaries[j+1]*g, layers); l++ {
			home[l] = dev
		}
	}
	return home
}
