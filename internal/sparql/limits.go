package sparql

// Query governance knobs: deadlines and memory budgets. The evaluator
// observes a context.Context at block granularity (one check per row in
// join loops, one per 128 streamed callbacks — see exec.go and
// batch.go), and accounts binding-table and result-row growth against a
// govern.Meter. Crossing the soft budget makes oversized step outputs
// stream to spill files (spill.go); crossing the hard cap fails the
// query with govern.ErrBudgetExceeded instead of OOMing the process.

import (
	"context"
	"sync/atomic"
	"time"

	"hexastore/internal/govern"
	"hexastore/internal/iofault"
	"hexastore/internal/obs"
)

// EvalOptions parameterizes one evaluation beyond the package-wide
// defaults. The zero value means "no limits, package-default workers".
type EvalOptions struct {
	// Workers is the intra-query parallelism budget; <= 0 uses the
	// package-wide MaxWorkers.
	Workers int

	// MemBudget is the soft memory budget in bytes: once the query's
	// accounted engine state (binding tables plus materialized result
	// rows) would cross it, oversized binding partitions spill to temp
	// files and stream back. 0 means unlimited (and defers to the
	// package default, SetDefaultLimits).
	MemBudget int64

	// HardCap is the kill limit in bytes: accounting that cannot be
	// brought back under it by spilling fails the query with
	// govern.ErrBudgetExceeded. 0 derives hardCapFactor × MemBudget
	// when a budget is set, unlimited otherwise.
	HardCap int64

	// NoSpill disables spilling: crossing MemBudget fails the query
	// with govern.ErrBudgetExceeded immediately. This makes MemBudget
	// a deterministic kill threshold for tests and strict deployments.
	NoSpill bool

	// SpillDir is the directory for spill files ("" = os.TempDir()).
	// Spill files are created lazily on first spill and removed when
	// the evaluation returns, success or not.
	SpillDir string

	// FS is the filesystem spill files go through; nil = iofault.OS.
	// The crash/fault torture harness injects faults here, so the
	// spill path is covered by the same ENOSPC and torn-write plans as
	// the durability layers.
	FS iofault.FS

	// Meter, when non-nil, is used for accounting instead of a meter
	// built from MemBudget/HardCap — callers that want to read peak
	// and spilled bytes after the query pass their own.
	Meter *govern.Meter

	// NoResultCache bypasses the Planner's result cache for this
	// evaluation (both lookup and fill). EXPLAIN queries bypass it
	// implicitly; servers set it for ?explain=1 requests so a trace is
	// never paired with cached rows it did not produce.
	NoResultCache bool

	// Trace, when non-nil, collects a per-query execution span tree:
	// planning (pattern order, cardinality estimates), every batch step
	// (rows in/out, candidate sizes, merge-vs-probe, workers, spill),
	// and — through the context — shard scatter-gather. nil disables
	// tracing entirely; the engine's hot loops never touch it.
	Trace *obs.Trace
}

// hardCapFactor derives the default hard cap from the soft budget:
// spillable state stays under the budget, so only unspillable growth
// (result rows, one in-flight step's transient) can reach beyond it.
const hardCapFactor = 4

var (
	defaultBudgetSetting  atomic.Int64
	defaultTimeoutSetting atomic.Int64
)

// SetDefaultLimits installs package-wide defaults applied by every
// evaluation that does not set its own: a per-query soft memory budget
// in bytes (0 = unlimited) and a per-query timeout (0 = none). The
// hexquery/hexbench -mem-budget and -timeout flags land here, giving
// every entry point — Exec, Planner.EvalOpts, the facade — the same
// governance without threading options through each call site. Safe to
// call concurrently; in-flight evaluations keep the limits they
// started with.
func SetDefaultLimits(memBudget int64, timeout time.Duration) {
	defaultBudgetSetting.Store(memBudget)
	defaultTimeoutSetting.Store(int64(timeout))
}

// DefaultMemBudget returns the package-wide soft memory budget.
func DefaultMemBudget() int64 { return defaultBudgetSetting.Load() }

// DefaultTimeout returns the package-wide per-query timeout.
func DefaultTimeout() time.Duration { return time.Duration(defaultTimeoutSetting.Load()) }

// withDefaultTimeout applies the package-default timeout to ctx when
// one is configured and ctx does not already carry an earlier
// deadline. The returned cancel is never nil.
func withDefaultTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	d := DefaultTimeout()
	if d <= 0 {
		return ctx, func() {}
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// meterFor resolves the meter an evaluation accounts against: the
// caller's, or one built from the (defaulted) budget knobs; nil when
// the evaluation is unlimited.
func meterFor(opt *EvalOptions) *govern.Meter {
	if opt.Meter != nil {
		return opt.Meter
	}
	budget := opt.MemBudget
	if budget == 0 {
		budget = DefaultMemBudget()
	}
	hard := opt.HardCap
	if hard == 0 && budget > 0 {
		hard = hardCapFactor * budget
	}
	if budget <= 0 && hard <= 0 {
		return nil
	}
	return govern.NewMeter(budget, hard)
}
