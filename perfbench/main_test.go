package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// repoRoot is the checkout the benchmark sits in.
const repoRoot = ".."

// tamperedRoot copies the golden fixtures into a fresh root and breaks
// one fixture's objective: a deliberately wrong expectation.
func tamperedRoot(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	dst := goldenDir(root)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, gc := range goldenCases {
		b, err := os.ReadFile(filepath.Join(goldenDir(repoRoot), gc.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if gc.name == "cluster9-opt-13b" {
			var g map[string]any
			if err := json.Unmarshal(b, &g); err != nil {
				t.Fatal(err)
			}
			g["objective"] = g["objective"].(float64) * 1.01
			if b, err = json.Marshal(g); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dst, gc.name+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestGoldenGate(t *testing.T) {
	root := tamperedRoot(t)
	for _, gc := range goldenCases {
		err := checkGolden(root, gc)
		if wrong := gc.name == "cluster9-opt-13b"; (err != nil) != wrong {
			t.Errorf("%s: err = %v, want failure only for the tampered fixture", gc.name, err)
		}
	}
}

// TestRunFailsOnWrongExpectation runs the whole benchmark against the
// tampered fixture: it must count the failed gate, report
// correct=false and exit non-zero.
func TestRunFailsOnWrongExpectation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full benchmark")
	}
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "pipeline-generate", "--seed", "5", "--seconds", "1", "--root", tamperedRoot(t)}, &out, &errOut)
	if code == 0 {
		t.Fatalf("exit code 0 with a wrong golden expectation; stderr:\n%s", errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	// Serving gates can fail too in a slow stretch of the host; the golden
	// gate must be among the failures.
	if res.Correct || res.Failed < 1 || res.Attempted <= res.Failed {
		t.Errorf("result %+v, want correct=false with a failed gate", res)
	}
	if !strings.Contains(errOut.String(), "golden plan cluster9-opt-13b") {
		t.Errorf("stderr does not name the failed gate:\n%s", errOut.String())
	}
	for _, name := range []string{"setup_s", "gen_tok_s", "goodput_rps", "ttft_p90_ms"} {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}
}

func TestRunFailsOutsideCheckout(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "plan-replan", "--root", t.TempDir()}, &out, &errOut)
	if code == 0 || strings.Contains(out.String(), `"correct"`) {
		t.Fatalf("exit %d, stdout %q: want a non-zero exit and no result", code, out.String())
	}
}

func TestStreamGate(t *testing.T) {
	good := "data: {\"choices\":[{\"text\":\"a\"}]}\n\n" +
		"data: {\"choices\":[{\"text\":\"b\"}]}\n\n" +
		"data: {\"choices\":[{\"text\":\"\"}],\"usage\":{\"completion_tokens\":2}}\n\n" +
		"data: [DONE]\n\n"
	if n, bad := checkStream([]byte(good), 2); bad != "" || n != 2 {
		t.Fatalf("good stream: %d tokens, %q", n, bad)
	}
	if _, bad := checkStream([]byte(good), 3); bad == "" {
		t.Error("wrong max_tokens expectation passed")
	}
	if _, bad := checkStream([]byte(strings.TrimSuffix(good, "data: [DONE]\n\n")), 2); bad == "" {
		t.Error("stream without [DONE] passed")
	}
}

func TestTokenGate(t *testing.T) {
	want := [][]int{{1, 2, 3}}
	want[0] = append(want[0], make([]int, genNewTokens)...)
	got := [][]int{append([]int(nil), want[0]...)}
	if err := sameTokens(got, want, genNewTokens); err != nil {
		t.Fatal(err)
	}
	got[0][5]++
	if err := sameTokens(got, want, genNewTokens); err == nil {
		t.Error("a wrong token passed")
	}
}

func TestGoodput(t *testing.T) {
	r := func(rate, met, sent int) rateResult { return rateResult{rate: rate, met: met, sent: sent} }
	got := goodput([]rateResult{r(100, 100, 100), r(200, 199, 200), r(300, 150, 300)})
	// 200 passes with attainment 0.995; 300 fails at 0.5.
	if want := 200 + 100*(0.995-0.99)/(0.995-0.5); math.Abs(got-want) > 1e-9 {
		t.Errorf("goodput %v, want %v", got, want)
	}
	if g := goodput([]rateResult{r(100, 90, 100)}); g != 0 {
		t.Errorf("goodput %v with a failing lowest rate, want 0", g)
	}
	// A stall that fails 200 req/s must not hide that 300 passed.
	got = goodput([]rateResult{r(100, 100, 100), r(200, 190, 200), r(300, 300, 300), r(400, 200, 400)})
	if want := 300 + 100*(1-0.99)/(1-0.5); math.Abs(got-want) > 1e-9 {
		t.Errorf("goodput %v, want %v", got, want)
	}
}

func TestStraddle(t *testing.T) {
	r := func(rate, met, sent int) rateResult { return rateResult{rate: rate, met: met, sent: sent} }
	// A stall that fails the lowest rate leaves goodput inside the sweep.
	if err := straddle([]rateResult{r(150, 96, 100), r(250, 100, 100), r(400, 20, 100)}); err != nil {
		t.Errorf("goodput inside the sweep: %v", err)
	}
	if err := straddle([]rateResult{r(150, 96, 100), r(250, 90, 100), r(400, 20, 100)}); err == nil {
		t.Error("no passing rate passed the gate")
	}
	if err := straddle([]rateResult{r(150, 100, 100), r(250, 100, 100), r(400, 100, 100)}); err == nil {
		t.Error("a passing highest rate passed the gate")
	}
}

// TestLayerTimes traces a planning pass over the three smallest clusters
// behind a counting timer and checks that moving the profiler's busy time
// out of the assigner leaves no layer with negative time.
func TestLayerTimes(t *testing.T) {
	specs, err := planSetup(1)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Cluster.NumDevices() < specs[j].Cluster.NumDevices() })
	small := specs[:3]
	tr, ct := newTracer(), &countingTimer{}
	if _, err := runPlanPass(tr, small, ct, 0); err != nil {
		t.Fatal(err)
	}
	busy := map[string]time.Duration{"assigner": time.Duration(ct.ns.Load())}
	got := tr.layerTimes(busy)
	if ct.calls.Load() == 0 || got["profiler"] <= 0 || got["runtime"] <= 0 {
		t.Fatalf("layer times %v after %d profiler calls: want profiler and runtime time", got, ct.calls.Load())
	}
	for layer, d := range got {
		if d < 0 {
			t.Errorf("layer %s has negative time %v", layer, d)
		}
	}
	spans := tr.rec.Spans()
	if len(spans) != 1+2*len(small) {
		t.Fatalf("%d spans, want a pass span and two per cluster", len(spans))
	}
	for _, s := range spans[:len(spans)-1] {
		if s.Args["parent"] != spans[len(spans)-1].Args["id"] {
			t.Errorf("span %s has parent %s, want the pass span", s.Name, s.Args["parent"])
		}
	}
}

func TestInputsFollowSeed(t *testing.T) {
	a, b := openLoopTrace(refRate, 50, 7), openLoopTrace(refRate, 50, 7)
	for i := range a {
		if a[i].due != b[i].due || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("request %d differs for the same seed", i)
		}
	}
	if !reflect.DeepEqual(genPromptsFor(3), genPromptsFor(3)) {
		t.Fatal("pipeline prompts differ for the same seed")
	}
}
