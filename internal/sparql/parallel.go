package sparql

// Intra-query parallelism for the batch engine. When a join step's
// binding table is large, its per-row work — existence probes in
// filterStep, candidate fetches in expandStep — partitions across
// workers: each worker owns a contiguous row range, private scratch
// buffers, and private output columns, and the partial results are
// spliced back in partition order. Because every partition computes
// exactly what the sequential loop would have computed for its rows, and
// the splice preserves row order, the binding table after a parallel
// step is identical to the sequential one — which is what lets the
// differential suites assert worker-count invariance, and why results
// and row ordering never depend on GOMAXPROCS.
//
// Steps whose row cap is active (the final step of an ASK/LIMIT branch)
// stay sequential: the cap is an early-termination contract that a
// partitioned loop would either break or have to coordinate on; capped
// steps produce few rows by construction, so there is nothing to win.
// Emission, FILTER evaluation and OPTIONAL matching also stay
// sequential — they funnel into shared evaluator state (result rows,
// DISTINCT set, decode cache) and are a small fraction of join time.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"hexastore/internal/core"
	"hexastore/internal/govern"
)

// maxWorkersSetting holds the configured package-wide worker budget;
// <= 0 means "use runtime.GOMAXPROCS(0) at evaluation time".
var maxWorkersSetting atomic.Int64

// SetMaxWorkers sets the package-wide intra-query worker budget used by
// every evaluation that does not set EvalOptions.Workers (the
// hexserver/hexbench -workers flag lands here). n <= 0 restores the default, runtime.GOMAXPROCS(0); n == 1
// disables intra-query parallelism. Safe to call concurrently with
// running queries; in-flight evaluations keep the budget they started
// with.
func SetMaxWorkers(n int) { maxWorkersSetting.Store(int64(n)) }

// MaxWorkers returns the current intra-query worker budget.
func MaxWorkers() int {
	if n := maxWorkersSetting.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultParallelRowThreshold is the default binding-table row count
// above which join steps partition across workers. Below it, goroutine
// startup and partial-column splicing cost more than the row loop.
const DefaultParallelRowThreshold = 2048

// rowThresholdSetting holds the configured threshold; <= 0 means the
// default.
var rowThresholdSetting atomic.Int64

// SetParallelRowThreshold overrides the row count at which join steps go
// parallel (n <= 0 restores DefaultParallelRowThreshold). Tests lower it
// to drive the parallel paths on small fixtures; deployments with very
// cheap rows can raise it.
func SetParallelRowThreshold(n int) { rowThresholdSetting.Store(int64(n)) }

// ParallelRowThreshold returns the active row threshold.
func ParallelRowThreshold() int {
	if n := rowThresholdSetting.Load(); n > 0 {
		return int(n)
	}
	return DefaultParallelRowThreshold
}

// parallelOK reports whether the current step should partition rows:
// a worker budget above one, no active row cap, and a table big enough
// to amortize the fan-out.
func (bx *batchExec) parallelOK(rows int) bool {
	return bx.workers > 1 && bx.rowCap < 0 && rows >= ParallelRowThreshold()
}

// partitionRows splits [0, n) into at most workers contiguous,
// near-equal ranges.
func partitionRows(n, workers int) [][2]int {
	if workers > n {
		workers = n
	}
	parts := make([][2]int, 0, workers)
	for i := 0; i < workers; i++ {
		lo, hi := i*n/workers, (i+1)*n/workers
		if lo < hi {
			parts = append(parts, [2]int{lo, hi})
		}
	}
	return parts
}

// probeRowsParallel is filterStep's multi-bound-column case with the
// existence probes partitioned across workers. Each worker collects the
// surviving absolute row indices of its range; concatenating the ranges
// in order yields the same keep list the sequential loop builds.
func (bx *batchExec) probeRowsParallel(sp *stepSpec) error {
	tbl := &bx.tbl
	parts := partitionRows(tbl.n, bx.workers)
	bx.curSp.SetInt("workers", int64(len(parts)))
	keeps := make([][]int, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	ctx := bx.ev.ctx
	for w, pr := range parts {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			keep := make([]int, 0, hi-lo)
			for r := lo; r < hi; r++ {
				// Workers observe the context with private counters —
				// the evaluator's tick state is not shared across
				// goroutines.
				if ctx != nil && (r-lo)&127 == 0 {
					if err := ctx.Err(); err != nil {
						errs[w] = err
						return
					}
				}
				ok, err := bx.src.Has(bx.subst(sp, 0, r), bx.subst(sp, 1, r), bx.subst(sp, 2, r))
				if err != nil {
					errs[w] = err
					return
				}
				if ok {
					keep = append(keep, r)
				}
			}
			keeps[w] = keep
		}(w, pr[0], pr[1])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	keep := bx.keep[:0]
	for _, k := range keeps {
		keep = append(keep, k...)
	}
	tbl.compact(keep)
	bx.keep = keep
	return nil
}

// expandStepParallel runs a row-dependent expansion (one or two new
// variables) with the rows partitioned across workers. Every worker
// fetches candidates into private scratch (per-worker cursors into the
// backend: the memory store copies terminal lists under its read lock,
// the disk store runs an independent B+-tree prefix scan per call) and
// builds private output columns; the partials are spliced in partition
// order, so the resulting table equals the sequential one row for row.
func (bx *batchExec) expandStepParallel(sp *stepSpec) error {
	tbl := &bx.tbl
	oldCols := tbl.cols
	nNew := len(sp.newNames)
	parts := partitionRows(tbl.n, bx.workers)
	if bx.curSp != nil {
		bx.curSp.Set("kind", "expand")
		bx.curSp.Set("newVars", strings.Join(sp.newNames, ","))
		bx.curSp.SetInt("workers", int64(len(parts)))
	}
	outs := make([][][]core.ID, len(parts))
	errs := make([]error, len(parts))
	ctx := bx.ev.ctx

	// Budget governance across workers: a shared cell counter against the
	// soft headroom left when the step started. Crossing it raises the
	// abort flag; every worker sees the shared counter cross, so all stop
	// within one row. The overshoot is bounded by one in-flight fetch per
	// worker; the sequential re-run (spill or typed failure) is decided
	// after the join below.
	var abort atomic.Bool
	var cells atomic.Int64
	headroom := int64(-1)
	if m := bx.ev.mem; m != nil {
		if b := m.Budget(); b > 0 {
			if headroom = b - m.Used(); headroom < 0 {
				headroom = 0
			}
		}
	}

	var wg sync.WaitGroup
	for w, pr := range parts {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			out := make([][]core.ID, len(oldCols)+nNew)
			var bufA, bufB []core.ID
			tick := workerTick(ctx)
			for r := lo; r < hi; r++ {
				if abort.Load() {
					return
				}
				var k int
				if sp.nFree == 1 {
					ids, err := bx.fetchOne(sp, r, bufA[:0], tick)
					if err != nil {
						errs[w] = err
						return
					}
					bufA = ids
					k = len(ids)
					if k > 0 {
						out[len(oldCols)] = append(out[len(oldCols)], ids...)
					}
				} else {
					var err error
					bufA, bufB, err = bx.fetchPair(sp, r, -1, bufA[:0], bufB[:0], tick)
					if err != nil {
						errs[w] = err
						return
					}
					k = len(bufA)
					if k > 0 {
						out[len(oldCols)] = append(out[len(oldCols)], bufA...)
						if nNew == 2 {
							out[len(oldCols)+1] = append(out[len(oldCols)+1], bufB...)
						}
					}
				}
				if ctx != nil {
					if err := ctx.Err(); err != nil {
						errs[w] = err
						return
					}
				}
				if k == 0 {
					continue
				}
				for c := range oldCols {
					out[c] = appendRun(out[c], oldCols[c][r], k)
				}
				if headroom >= 0 && cells.Add(int64(k*(len(oldCols)+nNew)))*8 > headroom {
					abort.Store(true)
					return
				}
			}
			outs[w] = out
		}(w, pr[0], pr[1])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if abort.Load() {
		if bx.ev.canSpill() {
			return errSpillNeeded
		}
		return fmt.Errorf("%w: step output crossed the %d-byte budget with spilling disabled",
			govern.ErrBudgetExceeded, bx.ev.mem.Budget())
	}

	out := make([][]core.ID, len(oldCols)+nNew)
	for _, po := range outs {
		for c := range out {
			out[c] = append(out[c], po[c]...)
		}
	}
	// The table had at least parallelRowThreshold rows, so no column can
	// seed the sorted flag here (that needs the one-row unit table);
	// existing flags survive because row order is preserved.
	newSorted := make([]bool, len(out))
	copy(newSorted, tbl.sorted)
	tbl.vars = append(tbl.vars, sp.newNames...)
	tbl.cols = out
	tbl.sorted = newSorted
	tbl.n = len(out[len(out)-1])
	return nil
}

// workerTick returns a goroutine-private cancellation tick for streamed
// fetch callbacks: every 128 calls it consults ctx directly. nil when
// the evaluation is not cancelable.
func workerTick(ctx context.Context) func() bool {
	if ctx == nil {
		return nil
	}
	n := 0
	return func() bool {
		if n++; n&127 != 0 {
			return true
		}
		return ctx.Err() == nil
	}
}
