package fleet

import "hcperf/internal/trace"

// RunReference runs cfg on the single-queue reference runner.
func RunReference(cfg Config) (*Result, error) {
	p, err := newPlan(cfg)
	if err != nil {
		return nil, err
	}
	return p.runShared()
}

// RunWithSeries runs cfg as Run does, keeping every vehicle's own series
// recorder (see VehicleRecs).
func RunWithSeries(cfg Config) (*Result, error) {
	p, err := newPlan(cfg)
	if err != nil {
		return nil, err
	}
	p.series = true
	return p.run()
}

// RunBlocks runs cfg as Run does, with a parallel worker for every block
// of at least block vehicles instead of minBlock.
func RunBlocks(cfg Config, block int) (*Result, error) {
	p, err := newPlan(cfg)
	if err != nil {
		return nil, err
	}
	p.block = block
	return p.run()
}

// VehicleRecs returns the per-vehicle series recorders of a RunWithSeries
// result, in fleet order.
func VehicleRecs(res *Result) []*trace.Recorder { return res.vehicleRecs }

// FellBack reports whether Run met a tie and reran on the reference runner.
func FellBack(res *Result) bool { return res.fellBack }

// Workers reports how many workers the parallel runner stepped res on
// (0 for a run on the reference runner).
func Workers(res *Result) int { return res.workers }

// MinBlock is the default fewest vehicles per parallel worker.
const MinBlock = minBlock
