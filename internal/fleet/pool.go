package fleet

import "sync"

// pool runs a per-vehicle function over N vehicles split into contiguous
// blocks, one block per worker. The calling goroutine runs block 0 and the
// other blocks run on long-lived goroutines, so a fleet step costs one
// hand-off per extra worker, not a goroutine start.
type pool struct {
	bounds []int           // block b is vehicles [bounds[b], bounds[b+1])
	start  []chan struct{} // start[b-1] starts block b on the current fn
	wg     sync.WaitGroup  // blocks still running the current call
	exited sync.WaitGroup  // worker goroutines still alive

	// fn and errs belong to the current call: each sets fn before it
	// starts the blocks, and block b writes only its vehicles' errs.
	fn   func(i int) error
	errs []error

	mu    sync.Mutex
	fault any // the first panic a block recovered
}

func newPool(workers, n int) *pool {
	p := &pool{bounds: make([]int, workers+1), errs: make([]error, n)}
	for b := range p.bounds {
		p.bounds[b] = b * n / workers
	}
	for b := 1; b < workers; b++ {
		ch := make(chan struct{})
		p.start = append(p.start, ch)
		p.exited.Add(1)
		go func(b int) {
			defer p.exited.Done()
			for range ch {
				p.block(b)
				p.wg.Done()
			}
		}(b)
	}
	return p
}

// each runs fn(i) for every vehicle, vehicles of one block in index order,
// and returns once all blocks are done: the first error by vehicle index,
// or a re-raised panic from any block.
func (p *pool) each(fn func(i int) error) error {
	p.fn = fn
	p.wg.Add(len(p.start))
	for _, ch := range p.start {
		ch <- struct{}{}
	}
	p.block(0)
	p.wg.Wait()
	if p.fault != nil {
		panic(p.fault)
	}
	for _, err := range p.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// block runs the current fn over block b, recovering a panic so that each
// can re-raise it on the calling goroutine.
func (p *pool) block(b int) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if p.fault == nil {
				p.fault = r
			}
			p.mu.Unlock()
		}
	}()
	for i := p.bounds[b]; i < p.bounds[b+1]; i++ {
		p.errs[i] = p.fn(i)
	}
}

// close stops the worker goroutines and returns once they have exited.
func (p *pool) close() {
	for _, ch := range p.start {
		close(ch)
	}
	p.exited.Wait()
}
