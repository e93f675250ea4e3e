package xlate

import (
	"fmt"
	"sync"
)

// Pipeline is the concurrent translation worker pool. The engine freezes a
// Request on its own thread (Translator.Prepare), submits it, and keeps the
// interpreter retiring guest instructions while workers run the translation
// backend; the finished translation is collected later — deterministically,
// at a simulated due time — via PipeRequest.Wait.
//
// Determinism contract: the pool affects WHEN (in wall-clock) a translation
// becomes available, never WHAT it contains — Request.Translate is a pure
// function of the frozen request — and the engine alone decides when to
// observe the result. Simulated metrics therefore do not depend on the
// worker count.
type Pipeline struct {
	submit chan *PipeRequest
	do     TranslateFunc
	wg     sync.WaitGroup
}

// PipeRequest is one in-flight translation.
type PipeRequest struct {
	Req *Request
	res chan pipeResult
}

type pipeResult struct {
	t   *Translation
	err error
}

// TranslateFunc runs the translation backend for one frozen request:
// Request.Translate, or a content-addressed shared store's
// lookup-or-translate so identical regions across VMs are translated once.
// It must be a pure function of the request's content (equal keys →
// byte-identical translations), or the engine's determinism contract breaks.
type TranslateFunc func(*Request) (*Translation, error)

// NewPipeline starts a pool of workers with a submit queue of the given
// depth. The queue never applies backpressure to the engine: the engine
// bounds its in-flight count to depth itself, so sends always find space.
func NewPipeline(workers, depth int, do TranslateFunc) *Pipeline {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	p := &Pipeline{submit: make(chan *PipeRequest, depth), do: do}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pipeline) worker() {
	defer p.wg.Done()
	for pr := range p.submit {
		t, err := p.run(pr.Req)
		pr.res <- pipeResult{t: t, err: err}
	}
}

// run executes the backend for one request, converting a backend panic into
// an error instead of killing the process: a worker goroutine has no caller
// to recover it, so without this a single bad translation would take down
// every VM in the farm. The engine surfaces the error through its normal
// failed-translation path.
func (p *Pipeline) run(req *Request) (t *Translation, err error) {
	defer func() {
		if r := recover(); r != nil {
			t, err = nil, fmt.Errorf("xlate: translation backend panicked at %#x: %v", req.Entry, r)
		}
	}()
	return p.do(req)
}

// Submit hands a frozen request to the pool. The caller must keep its
// in-flight count within the pool's depth; Submit panics on overflow rather
// than block the simulation.
func (p *Pipeline) Submit(req *Request) *PipeRequest {
	pr := &PipeRequest{Req: req, res: make(chan pipeResult, 1)}
	select {
	case p.submit <- pr:
		return pr
	default:
		panic("xlate: pipeline submit queue overflow (engine exceeded depth)")
	}
}

// Wait blocks until the request's translation is finished and returns it.
func (pr *PipeRequest) Wait() (*Translation, error) {
	r := <-pr.res
	return r.t, r.err
}

// Stop shuts the pool down, waiting for in-flight work to finish. Results
// of unobserved requests remain available via Wait (the result channel is
// buffered); callers that stop mid-run simply discard them.
func (p *Pipeline) Stop() {
	close(p.submit)
	p.wg.Wait()
}
