package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/serve"
	"repro/internal/workload"
)

// The serving SLO, after DistServe: a request meets it when its first
// token frame arrives within sloTTFT of the time it was due and the mean
// gap between its token frames is at most sloGap. goodput_rps is the
// highest swept rate at which at least sloShare of the requests *sent*
// meet it; a refused or failed request is a miss.
const (
	sloTTFT  = 50 * time.Millisecond
	sloGap   = 2 * time.Millisecond
	sloShare = 0.99
	// stepHold is llmpq-serve's default pacing: one decode step costs
	// about as long as a real one. A hold of 0 flushes tokens in
	// microsecond bursts and makes TTFT tails swing by 10×.
	stepHold = time.Millisecond
	// scrapeEvery / healthEvery pace the readers that contend with the
	// scheduler for its lock while requests stream.
	scrapeEvery = time.Second
	healthEvery = 50 * time.Millisecond
)

// maxTokenMix is the per-request max_tokens choice (uniform). Its mean
// sets where the knee sits: MaxBatch 16 slots held for ~mean×1.1 ms each.
// No stream is shorter than 32 tokens. The mean-gap limit leaves 0.9 ms
// of headroom per gap, so a 16-token stream failed on one 14 ms host
// stall, and those stalls failed the lowest rate in about 5% of runs.
var maxTokenMix = []int{32, 40, 48, 56, 64}

// serveOptions is the engine llmpq-serve runs by default: one A100
// serving opt-13b at 8 bits, continuous batches of up to 16.
func serveOptions(seed int64) (serve.Options, error) {
	m, err := model.ByName("opt-13b")
	if err != nil {
		return serve.Options{}, err
	}
	return serve.Options{
		Engine: online.Config{
			GPU: hardware.A100, Model: m, Bits: 8,
			MaxNew: 256, MaxBatch: 16, ShedDepth: 64, Seed: seed,
		},
		StepHold:  stepHold,
		RetrySeed: seed,
	}, nil
}

// serveReq is one generated request: when it is due (from the start of
// its rate's window), its shape, and the JSON body that carries it.
type serveReq struct {
	due    time.Duration
	prompt int
	maxTok int
	body   []byte
}

// openLoopTrace draws n Poisson arrivals at rate req/s with
// ShareGPT-shaped prompt lengths and mixed max_tokens, all from seed.
func openLoopTrace(rate, n int, seed int64) []serveReq {
	rng := rand.New(rand.NewSource(seed))
	lens := workload.ShareGPTLengths(n, 1024, seed^0x5eed)
	out := make([]serveReq, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / float64(rate)
		maxTok := maxTokenMix[rng.Intn(len(maxTokenMix))]
		body, _ := json.Marshal(serve.CompletionRequest{ // a struct of strings and ints always marshals
			Prompt: strings.TrimSpace(strings.Repeat("tok ", lens[i])), MaxTokens: &maxTok, Stream: true,
		})
		out[i] = serveReq{due: time.Duration(t * float64(time.Second)), prompt: lens[i], maxTok: maxTok, body: body}
	}
	return out
}

// frameWriter is the ResponseWriter each request is served into: it keeps
// the body and stamps every Flush, which the SSE writer issues once per
// frame, so frame k's arrival time is flushes[k].
type frameWriter struct {
	hdr     http.Header
	code    int
	body    bytes.Buffer
	flushes []time.Time
}

func (w *frameWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}

func (w *frameWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *frameWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(b)
}

func (w *frameWriter) Flush() { w.flushes = append(w.flushes, time.Now()) }

// outcome is what one request saw.
type outcome struct {
	code   int
	ttft   time.Duration   // due → first token frame
	gaps   []time.Duration // between consecutive token frames
	frames int
	bytes  int
	tokens int
	valid  bool   // 200 stream that ends in [DONE] with the requested token count
	bad    string // why a 200 stream is invalid
}

// call serves one request through the handler, as a client would see it.
func call(h http.Handler, method, path string, body []byte) *frameWriter {
	req, _ := http.NewRequestWithContext(context.Background(), method, path, bytes.NewReader(body)) // method and path are constants
	w := &frameWriter{}
	h.ServeHTTP(w, req)
	return w
}

func doRequest(h http.Handler, r serveReq, due time.Time) outcome {
	w := call(h, http.MethodPost, "/v1/completions", r.body)
	o := outcome{code: w.code, bytes: w.body.Len(), frames: len(w.flushes)}
	if w.code != http.StatusOK {
		return o
	}
	o.tokens, o.bad = checkStream(w.body.Bytes(), r.maxTok)
	o.valid = o.bad == ""
	// Frames are the token chunks, then the usage chunk, then [DONE].
	if o.valid && len(w.flushes) == o.tokens+2 {
		tok := w.flushes[:o.tokens]
		o.ttft = tok[0].Sub(due)
		for i := 1; i < len(tok); i++ {
			o.gaps = append(o.gaps, tok[i].Sub(tok[i-1]))
		}
	} else if o.valid {
		o.valid, o.bad = false, fmt.Sprintf("%d flushes for %d token frames", len(w.flushes), o.tokens)
	}
	return o
}

// checkStream is the stream correctness gate: SSE frames of token
// chunks, one usage chunk whose completion_tokens equals the requested
// max_tokens, then [DONE]. It returns the token-frame count and, when
// the stream is wrong, why.
func checkStream(body []byte, maxTok int) (int, string) {
	frames := strings.Split(strings.TrimSuffix(string(body), "\n\n"), "\n\n")
	if len(frames) < 2 || frames[len(frames)-1] != "data: [DONE]" {
		return 0, "stream does not end with [DONE]"
	}
	tokens := 0
	for i, f := range frames[:len(frames)-1] {
		payload, ok := strings.CutPrefix(f, "data: ")
		if !ok {
			return 0, fmt.Sprintf("frame %d is not an SSE data frame", i)
		}
		var c serve.CompletionResponse
		if err := json.Unmarshal([]byte(payload), &c); err != nil {
			return 0, fmt.Sprintf("frame %d: %v", i, err)
		}
		if c.Usage == nil {
			tokens++
			continue
		}
		if i != len(frames)-2 {
			return 0, "usage chunk is not the last data frame"
		}
		if c.Usage.CompletionTokens != maxTok || tokens != maxTok {
			return 0, fmt.Sprintf("completion_tokens %d, token frames %d, want %d", c.Usage.CompletionTokens, tokens, maxTok)
		}
		return tokens, ""
	}
	return 0, "no usage chunk"
}

// rateResult is the open-loop accounting of one fixed rate.
type rateResult struct {
	rate                             int // req/s
	sent, succeeded, refused, failed int
	invalid                          int    // 200 streams that failed the gate
	firstBad                         string // why the first of them failed
	met                              int    // requests meeting the SLO
	missTTFT, missGap                int    // 200 streams missing it, by limit
	ttftMs, gapMs                    []float64
	lateMs                           []float64 // how late the generator launched each request
	scrapeMs                         []float64
	frames, bytes, tokens            int
	simWriteUs                       float64
}

func (r rateResult) attainment() float64 { return float64(r.met) / float64(r.sent) }

// runRate drives one rate's trace open-loop into a fresh server: each
// request is launched at its due time whether or not earlier ones have
// finished, while one reader scrapes /metrics every second and another
// polls /healthz.
func runRate(tr *tracer, opts serve.Options, reqs []serveReq, rate int) (rateResult, error) {
	srv, err := serve.New(opts)
	if err != nil {
		return rateResult{}, err
	}
	h := srv.Handler()
	res := rateResult{rate: rate, sent: len(reqs)}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		health := time.NewTicker(healthEvery)
		defer health.Stop()
		lastScrape := time.Now()
		for {
			select {
			case <-stop:
				return
			case <-health.C:
				sp := tr.begin("serve.healthz", 0, 0)
				call(h, http.MethodGet, "/healthz", nil)
				sp.end()
				if time.Since(lastScrape) >= scrapeEvery {
					sp := tr.begin("obs.metrics_scrape", 0, 0)
					lastScrape = time.Now()
					call(h, http.MethodGet, "/metrics", nil)
					res.scrapeMs = append(res.scrapeMs, ms(time.Since(lastScrape)))
					sp.end()
				}
			}
		}
	}()

	outs := make([]outcome, len(reqs))
	res.lateMs = make([]float64, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		due := start.Add(reqs[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.lateMs[i] = ms(time.Since(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			sp := tr.begin("serve.completions", 0, i)
			outs[i] = doRequest(h, reqs[i], due)
			sp.end()
		}(i, due)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return res, fmt.Errorf("drain at %d req/s: %w", rate, err)
	}
	sp := tr.begin("obs.Registry.WriteText", 0, 0)
	t0 := time.Now()
	err = srv.SimRegistry().WriteText(io.Discard)
	res.simWriteUs = us(time.Since(t0))
	sp.end()
	if err != nil {
		return res, err
	}

	for _, o := range outs {
		switch {
		case o.code == http.StatusTooManyRequests:
			res.refused++
			continue
		case o.code != http.StatusOK:
			res.failed++
			continue
		case !o.valid:
			if res.invalid == 0 {
				res.firstBad = o.bad
			}
			res.invalid++
			continue
		}
		res.succeeded++
		res.frames += o.frames
		res.bytes += o.bytes
		res.tokens += o.tokens
		res.ttftMs = append(res.ttftMs, ms(o.ttft))
		var sum time.Duration
		for _, g := range o.gaps {
			res.gapMs = append(res.gapMs, ms(g))
			sum += g
		}
		meanGap := time.Duration(0)
		if len(o.gaps) > 0 {
			meanGap = sum / time.Duration(len(o.gaps))
		}
		switch {
		case o.ttft > sloTTFT:
			res.missTTFT++
		case meanGap > sloGap:
			res.missGap++
		default:
			res.met++
		}
	}
	return res, nil
}
