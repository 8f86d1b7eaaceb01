package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/quant"
	rt "repro/internal/runtime"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// The pipeline part greedy-decodes a batch of prompts through the real
// mixed-precision runtime. Prompt plus output must fit nn.TinyOPT's
// MaxSeq of 96.
const (
	genPrompts   = 8
	genNewTokens = 32
	genMinPrompt = 16
	genMaxPrompt = 47
	// genPromptTokens is the batch's total prompt length, 32 per prompt.
	genPromptTokens = 256
	// genPlanName is the golden plan whose stages and bits the pipeline
	// takes: 12 layer groups of 4 opt-30b layers, mapped 2:1 onto
	// TinyOPT's 24 layers.
	genPlanName = "cluster3-opt-30b"
)

// genShape maps a golden plan's group boundaries and bits onto TinyOPT.
func genShape(root string) (bounds, bits []int, err error) {
	g, err := loadGolden(root, genPlanName)
	if err != nil {
		return nil, nil, err
	}
	per := nn.TinyOPT.Layers / len(g.GroupBits)
	if per*len(g.GroupBits) != nn.TinyOPT.Layers {
		return nil, nil, fmt.Errorf("%d groups do not divide %d layers", len(g.GroupBits), nn.TinyOPT.Layers)
	}
	for _, b := range g.Boundaries {
		bounds = append(bounds, b*per)
	}
	for l := 0; l < nn.TinyOPT.Layers; l++ {
		bits = append(bits, g.GroupBits[l/per])
	}
	return bounds, bits, nil
}

// genPromptsFor draws the prompts: ShareGPT-shaped lengths squeezed into
// [genMinPrompt, genMaxPrompt], then evened out one token at a time (the
// shortest prompt grows, or the longest shrinks) until the batch holds
// genPromptTokens, so every seed asks for the same work. Tokens are
// uniform over the vocabulary.
func genPromptsFor(seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	lens := workload.ShareGPTLengths(genPrompts, 1024, seed^0x9e37)
	sum := 0
	for i, l := range lens {
		lens[i] = genMinPrompt + (genMaxPrompt-genMinPrompt)*l/1024
		sum += lens[i]
	}
	for ; sum < genPromptTokens; sum++ {
		lens[argminInt(lens)]++
	}
	for ; sum > genPromptTokens; sum-- {
		lens[argmaxInt(lens)]--
	}
	out := make([][]int, genPrompts)
	for i, n := range lens {
		out[i] = make([]int, n)
		for j := range out[i] {
			out[i][j] = rng.Intn(nn.TinyOPT.Vocab)
		}
	}
	return out
}

func argminInt(xs []int) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

func argmaxInt(xs []int) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// genState is one built pipeline with its model and inputs.
type genState struct {
	model   *nn.Model
	pipe    *rt.Pipeline
	stages  int
	prompts [][]int
}

// genSetup builds the model and a pipeline whose shards are quantized to
// the plan's bits.
func genSetup(bounds, bits []int, seed int64) (genState, error) {
	m, err := nn.New(nn.TinyOPT, seed)
	if err != nil {
		return genState{}, err
	}
	p, err := rt.NewPipeline(m, bounds, bits)
	if err != nil {
		return genState{}, err
	}
	return genState{model: m, pipe: p, stages: len(bounds) - 1, prompts: genPromptsFor(seed)}, nil
}

// greedyReference decodes each prompt alone with Model.Forward and argmax
// over the last row, the single-process answer the pipeline must equal.
func greedyReference(m *nn.Model, prompt []int, n int) ([]int, error) {
	cache := m.NewCache()
	in := prompt
	var out []int
	for len(out) < n {
		logits, err := m.Forward(in, cache)
		if err != nil {
			return nil, err
		}
		row := logits.Row(logits.Rows - 1)
		best := 0
		for i, v := range row {
			if v > row[best] {
				best = i
			}
		}
		out = append(out, best)
		in = []int{best}
	}
	return out, nil
}

// matmulProbe times tensor.MatMul at one of the model's shapes:
// activations (rows × Hidden) times the fc1 weight (Hidden × FFN).
type matmulProbe struct {
	us              float64
	flops, bytesMov float64 // computed from the shapes, not measured
}

func probeMatMul(rows, reps int, rng *rand.Rand) (matmulProbe, error) {
	h, f := nn.TinyOPT.Hidden, nn.TinyOPT.FFN
	a := tensor.Randn(rows, h, 1, rng)
	b := tensor.Randn(h, f, 1, rng)
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := tensor.MatMul(a, b); err != nil {
			return matmulProbe{}, err
		}
		times = append(times, us(time.Since(t0)))
	}
	return matmulProbe{
		us:       median(times),
		flops:    2 * float64(rows*h*f),
		bytesMov: 8 * float64(rows*h+h*f+rows*f),
	}, nil
}

// layerProbe times Model.ForwardRange over one decoder layer at one
// bitwidth: a prefill of `rows` tokens on an empty cache, and a one-token
// decode step after that prefill (the cache is reset before each step so
// every step sees the same context length).
func layerProbe(m *nn.Model, bits, rows, reps int, rng *rand.Rand) (prefillUs, decodeUs float64, err error) {
	if err := m.SetLayerBits(0, bits, quant.Deterministic, nil); err != nil {
		return 0, 0, err
	}
	h := nn.TinyOPT.Hidden
	x := tensor.Randn(rows, h, 1, rng)
	var pre, dec []float64
	for i := 0; i < reps; i++ {
		cache := m.NewCache()
		t0 := time.Now()
		if _, err := m.ForwardRange(0, 1, x.Clone(), cache); err != nil {
			return 0, 0, err
		}
		pre = append(pre, us(time.Since(t0)))
		k0, v0 := cache.K[0], cache.V[0]
		for j := 0; j < 4; j++ {
			cache.K[0], cache.V[0] = k0, v0
			step := tensor.Randn(1, h, 1, rng)
			t0 = time.Now()
			if _, err := m.ForwardRange(0, 1, step, cache); err != nil {
				return 0, 0, err
			}
			dec = append(dec, us(time.Since(t0)))
		}
	}
	return median(pre), median(dec), nil
}

// pipelineStages reads the per-stage wall-clock sums the runtime's own
// Instrument hook recorded.
func pipelineStages(reg *obs.Registry, stages int) (compute, recv, send []float64) {
	tb := obs.TimeBuckets()
	for j := 0; j < stages; j++ {
		l := obs.L("stage", strconv.Itoa(j))
		compute = append(compute, reg.Histogram("llmpq_pipeline_stage_compute_seconds", tb, l).Sum())
		recv = append(recv, reg.Histogram("llmpq_pipeline_stage_recv_wait_seconds", tb, l).Sum())
		send = append(send, reg.Histogram("llmpq_pipeline_stage_send_wait_seconds", tb, l).Sum())
	}
	return compute, recv, send
}
