package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/pipeinfer/pipeinfer/internal/backend/realbk"
	"github.com/pipeinfer/pipeinfer/internal/comm/tcpcomm"
	"github.com/pipeinfer/pipeinfer/internal/engine"
	"github.com/pipeinfer/pipeinfer/internal/serve"
	"github.com/pipeinfer/pipeinfer/internal/token"
)

// tokenClock stamps every accepted token on the harness clock. OnToken
// runs on the head rank's goroutine only, and the stamps are read after
// every rank has returned, so no lock is needed.
type tokenClock struct {
	t0 time.Time
	at [][]time.Duration // at[req] = instants of req's tokens since t0
}

func newTokenClock(reqs, maxNew int) *tokenClock {
	c := &tokenClock{at: make([][]time.Duration, reqs)}
	for i := range c.at {
		c.at[i] = make([]time.Duration, 0, maxNew)
	}
	return c
}

func (c *tokenClock) start() {
	for i := range c.at {
		c.at[i] = c.at[i][:0]
	}
	c.t0 = time.Now()
}

func (c *tokenClock) onToken(req int, _ token.Token) {
	c.at[req] = append(c.at[req], time.Since(c.t0))
}

// rep is what one serve of one request set yielded.
type rep struct {
	wall   time.Duration // t0 -> last rank returned
	cpuS   float64       // process user+sys CPU spent over the rep
	ttftMS []float64     // per request: first token - t0
	gapsMS []float64     // gaps between consecutive tokens of one request
	tokens int
	stats  engine.Stats
	failed int // requests that errored or left their reference stream
	why    string
}

// dialMesh brings up n tcpcomm loopback endpoints and returns once every
// pair is connected — the barrier the clock starts after. FreeAddrs
// releases its ports before Dial re-binds them, so a lost race with
// another process is retried on fresh ports.
func dialMesh(n int) ([]*tcpcomm.Endpoint, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addrs, err := tcpcomm.FreeAddrs(n)
		if err != nil {
			return nil, err
		}
		eps := make([]*tcpcomm.Endpoint, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				eps[r], errs[r] = tcpcomm.Dial(tcpcomm.Config{Rank: r, Addrs: addrs, DialTimeout: 5 * time.Second})
			}()
		}
		wg.Wait()
		lastErr = nil
		for _, err := range errs {
			if err != nil {
				lastErr = err
			}
		}
		if lastErr == nil {
			return eps, nil
		}
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	}
	return nil, fmt.Errorf("tcp mesh: %w", lastErr)
}

// serveOnce runs one serve through the public entry points and returns
// the head's outcome and the wall time from t0 — the instant Serve (or
// ServeRank on every rank) is called, transports already up — to the
// last rank's return.
func serveOnce(w workload, opts realbk.ServeOptions, clock *tokenClock) (realbk.ServeOutcome, time.Duration, error) {
	if !w.tcp {
		clock.start()
		out, err := realbk.Serve(opts)
		return out, time.Since(clock.t0), err
	}
	eps, err := dialMesh(opts.Nodes)
	if err != nil {
		return realbk.ServeOutcome{}, 0, err
	}
	outs := make([]realbk.ServeOutcome, len(eps))
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	clock.start()
	for r, ep := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[r], errs[r] = realbk.ServeRank(ep, opts)
		}()
	}
	wg.Wait()
	wall := time.Since(clock.t0)
	for _, ep := range eps {
		ep.Close()
	}
	for _, err := range errs {
		if err != nil {
			return realbk.ServeOutcome{}, wall, err
		}
	}
	return outs[0], wall, nil
}

// hooks lets the traced pass (and the variant passes) adjust a rep's
// options without the measured pass paying for any of it.
type hooks func(o *realbk.ServeOptions)

// runRep serves one request set and checks it: every request must have
// been served, token for token equal to its serial reference.
func runRep(w workload, reqs []serve.Request, refs [][]token.Token, clock *tokenClock, h hooks) rep {
	opts := w.serveOptions(reqs)
	opts.OnToken = clock.onToken
	if h != nil {
		h(&opts)
	}
	cpu0 := cpuSeconds()
	out, wall, err := serveOnce(w, opts, clock)
	r := rep{wall: wall, cpuS: cpuSeconds() - cpu0}
	if err != nil {
		r.failed, r.why = len(reqs), err.Error()
		return r
	}
	r.stats = out.Stats
	for i, res := range out.Results {
		switch {
		case res.Err != nil:
			r.failed++
			r.why = fmt.Sprintf("request %d: %v", i, res.Err)
		case !slices.Equal(res.Tokens, refs[i]):
			r.failed++
			r.why = fmt.Sprintf("request %d: output differs from its serial reference", i)
		}
		r.tokens += len(res.Tokens)
	}
	r.ttftMS = make([]float64, 0, len(clock.at))
	r.gapsMS = make([]float64, 0, r.tokens)
	for _, at := range clock.at {
		if len(at) == 0 {
			continue
		}
		r.ttftMS = append(r.ttftMS, ms(at[0]))
		for k := 1; k < len(at); k++ {
			r.gapsMS = append(r.gapsMS, ms(at[k]-at[k-1]))
		}
	}
	return r
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// references computes every request's serial greedy stream once, through
// the backend's own reference entry point.
func references(w workload, sets [][]serve.Request) ([][][]token.Token, error) {
	refs := make([][][]token.Token, len(sets))
	for s, reqs := range sets {
		refs[s] = make([][]token.Token, len(reqs))
		for i, rq := range reqs {
			ref, err := realbk.ReferenceGreedy(realbk.Options{
				ModelCfg: benchModel(), Seed: modelSeed, Prompt: rq.Prompt,
			}, rq.MaxNew)
			if err != nil {
				return nil, fmt.Errorf("reference for set %d request %d: %w", s, i, err)
			}
			refs[s][i] = ref
		}
	}
	return refs, nil
}

// errDeadline marks a rep that outlived the harness deadline. The serve
// entry points take no context, so the stuck rep's goroutines cannot be
// stopped; the caller must exit the process.
var errDeadline = fmt.Errorf("rep exceeded the harness deadline")

// withDeadline runs f and returns its rep, or errDeadline once d passes.
func withDeadline(d time.Duration, f func() rep) (rep, error) {
	done := make(chan rep, 1)
	go func() { done <- f() }()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case r := <-done:
		return r, nil
	case <-t.C:
		return rep{}, errDeadline
	}
}
