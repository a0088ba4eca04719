package sparql

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hexastore/internal/core"
	"hexastore/internal/dictionary"
	"hexastore/internal/govern"
	"hexastore/internal/graph"
	"hexastore/internal/iofault"
	"hexastore/internal/obs"
	"hexastore/internal/rdf"
	"hexastore/internal/stats"
)

func newIRI(s string) rdf.Term     { return rdf.NewIRI(s) }
func newLiteral(s string) rdf.Term { return rdf.NewLiteral(s) }
func newBlank(s string) rdf.Term   { return rdf.NewBlank(s) }

// Row is one query solution: variable name → bound term. Variables that
// occur only in OPTIONAL groups may be absent.
type Row map[string]rdf.Term

// Result holds the solutions of a query. For ASK queries IsAsk is true,
// Answer carries the boolean result, and Rows is empty.
type Result struct {
	Vars   []string
	Rows   []Row
	IsAsk  bool
	Answer bool
}

// idPattern is a pattern with its constant positions resolved to
// dictionary ids. resolved is false when some constant is not in the
// dictionary at all (the pattern cannot match anything).
type idPattern struct {
	pat      Pattern
	ids      [3]core.ID
	resolved bool
}

// term returns position j (0=S, 1=P, 2=O) of the pattern.
func (p *idPattern) term(j int) Term {
	switch j {
	case 0:
		return p.pat.S
	case 1:
		return p.pat.P
	default:
		return p.pat.O
	}
}

// Exec parses and evaluates src against any Graph backend — the
// in-memory Hexastore (graph.Memory), the disk-based Hexastore, or the
// baseline triples table (graph.Baseline) — planning with a throwaway
// Planner. Callers that run more than one query against a graph should
// hold a Planner for it and call EvalOpts: the statistics summary, the
// plan cache and the result cache then outlive the query.
func Exec(g graph.Graph, src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return NewPlanner(g).EvalOpts(context.Background(), q, EvalOptions{})
}

// EvalOpts evaluates a parsed query. ctx carries cancellation and
// deadlines, opt the worker budget, the memory budget and tracing (see
// EvalOptions); package-wide defaults installed with SetMaxWorkers and
// SetDefaultLimits apply to whatever opt leaves unset.
//
// Planning: each UNION clause multiplies the query into branches (the
// standard BGP rewriting); within a branch, required patterns are
// ordered by estimated join size (see planOrderJoin), memoized per
// query shape in the plan cache. Execution is the columnar batch join
// over the backend's indexes (§4.2 of the paper); FILTERs run at the
// earliest step where their variables are bound, OPTIONAL groups
// extend solutions after the required patterns.
//
// Cancellation is checked at block granularity — between join steps,
// once per row in the per-row probe and expansion loops, and every 128
// streamed candidates — so an in-flight multi-way join stops with
// ctx.Err() within one block on every backend.
//
// When the backend offers consistent snapshots (graph.Snapshotter — the
// delta overlay, the sharded cluster), the whole evaluation is pinned to
// one snapshot, so a query's many pattern fetches all observe the same
// store version even while writers commit concurrently. The pin is
// released when the evaluation returns — including when it returns early
// with ctx.Err() or govern.ErrBudgetExceeded.
func (pl *Planner) EvalOpts(ctx context.Context, q *Query, opt EvalOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := withDefaultTimeout(ctx)
	defer cancel()
	workers := opt.Workers
	if workers <= 0 {
		workers = MaxWorkers()
	}
	// The trace rides the context so layers reached only through the
	// Graph interface (the sharded cluster's context wrapper) can attach
	// their own spans; a value-only context has no Done channel, so this
	// costs nothing on the cancellation path.
	if opt.Trace != nil {
		ctx = obs.NewContext(ctx, opt.Trace)
	}
	var pin *obs.Span
	if opt.Trace != nil {
		pin = opt.Trace.Child("snapshot")
	}
	g := graph.Snapshot(pl.g)
	// The pin span covers the whole window the snapshot is held; it is
	// released when the evaluation returns, success or not.
	defer pin.Finish()
	if pin != nil {
		pin.Set("backend", fmt.Sprintf("%T", graph.Unwrap(g)))
	}

	// The repeated-query fast path. The shape key feeds both caches; the
	// result cache additionally needs the content epoch, which MUST be
	// read from the pinned snapshot (not the live graph): a write landing
	// between an early epoch read and the pin could tag a stale answer
	// with a fresh token. EXPLAIN / EXPLAIN ANALYZE and NoResultCache
	// evaluations never consult the result cache — a cached row set with
	// a fabricated trace would lie about what executed.
	var (
		plans    = pl.plans.Load()
		results  = pl.results.Load()
		shape    string
		rkey     string
		epoch    string
		fillable bool
	)
	useResult := results != nil && q.Explain == ExplainNone && !opt.NoResultCache
	if plans != nil || useResult {
		var consts []rdf.Term
		var outVars []string
		shape, consts, outVars = shapeOf(q)
		if useResult {
			if epoch = graph.EpochOf(g); epoch != "" {
				rkey = resultKey(shape, outVars, consts)
				if res, ok := results.get(rkey, epoch); ok {
					pl.resultHits.Add(1)
					opt.Trace.Set("resultCache", "hit")
					return res, nil
				}
				pl.resultMisses.Add(1)
				opt.Trace.Set("resultCache", "miss")
				fillable = true
			}
		}
	}

	// Backends whose single operations run long (the sharded cluster
	// view) observe ctx inside one Match/AppendSortedList call.
	g = graph.WithContext(ctx, g)
	ev := &evaluator{
		src:      g,
		dict:     g.Dictionary(),
		q:        q,
		pl:       pl,
		plans:    plans,
		shape:    shape,
		sum:      pl.sum.Load(),
		workers:  workers,
		tr:       opt.Trace,
		mem:      meterFor(&opt),
		noSpill:  opt.NoSpill,
		spillFS:  iofault.Or(opt.FS),
		spillDir: opt.SpillDir,
	}
	if ctx.Done() != nil {
		ev.ctx = ctx
	}
	res, err := ev.run()
	if err == nil && fillable {
		// Cache fill. The retained bytes charge the query's meter first —
		// a query already at its budget does not get to pin more memory
		// process-wide; it just skips the fill (never fails over it).
		size := resultFootprint(res)
		ok := true
		if ev.mem != nil {
			if gerr := ev.mem.Grow(size); gerr != nil {
				ok = false
			} else {
				defer ev.mem.Shrink(size)
			}
		}
		if ok {
			results.put(rkey, epoch, res, size)
		}
	}
	return res, err
}

type evaluator struct {
	src  graph.Graph
	dict *dictionary.Dictionary
	q    *Query

	// sum is the owning Planner's statistics summary, pinned for this
	// evaluation; it prices every join order.
	sum *stats.Summary

	// pl is the owning Planner; plans is its plan cache pinned for this
	// evaluation (nil: disabled), shape the query's canonical shape key,
	// and branchIdx the index of the union branch currently planned —
	// together they key the memoized join orders.
	pl        *Planner
	plans     *planCache
	shape     string
	branchIdx int

	// workers is the intra-query parallelism budget (0 is normalized to
	// 1 at run time).
	workers int

	// tr is the evaluation's trace root (nil: tracing off — the nil-safe
	// span methods make every recording site a predictable no-op).
	tr *obs.Span

	// ctx is non-nil only when the evaluation is cancelable (the caller's
	// context has a Done channel); ctxTick counts tick sites so the check
	// itself runs once per 128 of them, and ctxErr latches the first
	// observed context error so every later tick fails fast.
	ctx     context.Context
	ctxTick int
	ctxErr  error
	// tickFn is tickOK bound once, handed to streaming fetches so their
	// callbacks can observe cancellation without a per-call closure.
	tickFn func() bool

	// mem accounts binding-table and result-row growth (nil: unlimited);
	// noSpill turns a soft-budget crossing into an immediate
	// govern.ErrBudgetExceeded instead of spilling. spillFS/spillDir say
	// where spill files go (see spill.go). rowBytes is the accounted
	// estimate of one materialized result row.
	mem      *govern.Meter
	noSpill  bool
	spillFS  iofault.FS
	spillDir string
	rowBytes int64

	vars []string
	// branchVars holds the variables the current union branch's required
	// patterns bind: every solution binds them. Any other projected
	// variable — one occurring only in OPTIONAL groups or only in other
	// UNION alternatives — may be unbound.
	branchVars map[string]bool

	binding  map[string]core.ID
	res      *Result
	distinct map[string]bool
	target   int // rows needed before OFFSET/LIMIT trimming; -1 = all
	done     bool

	// batch is the columnar join executor, one per evaluation; its
	// binding table and scratch buffers are reused across branches.
	batch batchExec

	// keyBuf is the reusable buffer for binary DISTINCT / GROUP BY keys
	// (fixed-width big-endian ids; None encodes unbound).
	keyBuf []byte

	// termCache memoizes dictionary decodes for the current query, so a
	// term is decoded once however many rows it appears in.
	termCache map[core.ID]rdf.Term

	// orderKeys[i] holds the ORDER BY key terms of res.Rows[i]; kept
	// separately because sort variables need not be projected.
	orderKeys [][]orderVal

	// Aggregation state (len(q.Aggregates) > 0): solutions are folded
	// into groups instead of emitted as rows.
	aggMode  bool
	groups   map[string]*aggGroup
	groupSeq []string // insertion order of group keys
}

// aggGroup accumulates one GROUP BY bucket.
type aggGroup struct {
	keyIDs   map[string]core.ID     // group-by variable → id
	counts   []int                  // per aggregate
	distinct []map[core.ID]struct{} // per DISTINCT aggregate
}

// orderVal is one ORDER BY key value of one solution.
type orderVal struct {
	term  rdf.Term
	bound bool
}

// tickOK is the evaluator's cancellation check, called once per row in
// join loops and once per streamed candidate in Match callbacks: it
// returns false once the context is done, with the actual ctx.Err()
// latched in ev.ctxErr. The context is consulted every 128 ticks, so the
// steady-state cost is one increment and one branch.
func (ev *evaluator) tickOK() bool {
	if ev.ctxErr != nil {
		return false
	}
	if ev.ctx == nil {
		return true
	}
	if ev.ctxTick++; ev.ctxTick&127 != 0 {
		return true
	}
	if err := ev.ctx.Err(); err != nil {
		ev.ctxErr = err
		return false
	}
	return true
}

// ctxCheck consults the context directly (no tick amortization); used at
// step and chunk boundaries.
func (ev *evaluator) ctxCheck() error {
	if ev.ctxErr != nil {
		return ev.ctxErr
	}
	if ev.ctx != nil {
		if err := ev.ctx.Err(); err != nil {
			ev.ctxErr = err
		}
	}
	return ev.ctxErr
}

// canSpill reports whether a soft-budget crossing may be answered by
// spilling (rather than failing): spilling enabled and a soft budget
// configured to size the spill chunks by.
func (ev *evaluator) canSpill() bool {
	return !ev.noSpill && ev.mem.Budget() > 0
}

func (ev *evaluator) run() (*Result, error) {
	q := ev.q
	ev.vars = q.Vars
	if len(ev.vars) == 0 {
		ev.vars = q.AllVars()
	}
	ev.binding = make(map[string]core.ID)
	ev.termCache = make(map[core.ID]rdf.Term)
	ev.batch.ev = ev
	ev.batch.src = ev.src
	ev.batch.workers = ev.workers
	if ev.batch.workers < 1 {
		ev.batch.workers = 1
	}
	if ss, ok := graph.AsSortedSource(ev.src); ok {
		ev.batch.sorted = ss
	}
	if vs, ok := graph.AsViewSource(ev.src); ok {
		ev.batch.views = vs
	}
	if len(q.Aggregates) > 0 {
		ev.aggMode = true
		ev.groups = make(map[string]*aggGroup)
		// Output columns: the group-key variables followed by the
		// aggregate aliases.
		outVars := append([]string(nil), q.Vars...)
		for _, a := range q.Aggregates {
			outVars = append(outVars, a.As)
		}
		ev.vars = outVars
	}
	ev.res = &Result{Vars: ev.vars}
	ev.tickFn = ev.tickOK
	// Accounted estimate of one materialized row: map + terms, DISTINCT
	// key, ORDER BY keys. Result rows cannot spill, so they count against
	// the hard cap — a query whose output alone is enormous fails typed
	// instead of exhausting memory.
	ev.rowBytes = int64(96 + 56*len(ev.vars) + 40*len(q.OrderBy))
	// Whatever path exits, drop spill files and return accounted bytes.
	defer ev.batch.release()
	if q.Distinct && !ev.aggMode {
		ev.distinct = make(map[string]bool)
	}
	// Early termination is only sound without ORDER BY or aggregation:
	// otherwise the full solution set must be materialized first.
	ev.target = -1
	if len(q.OrderBy) == 0 && !ev.aggMode && q.Limit > 0 {
		ev.target = q.Offset + q.Limit
	}
	if q.Ask {
		ev.target = 1 // one solution decides the answer
	}

	// Resolve optional groups once; they are shared by all branches.
	optionals := make([][]idPattern, 0, len(q.Optionals))
	for _, group := range q.Optionals {
		optionals = append(optionals, ev.resolve(group))
	}

	for _, branch := range expandUnions(q) {
		if err := ev.ctxCheck(); err != nil {
			return nil, err
		}
		pats := ev.resolve(branch)
		if err := ev.runBranch(pats, optionals); err != nil {
			return nil, err
		}
		if ev.done {
			break
		}
	}

	if ev.aggMode {
		if err := ev.materializeGroups(); err != nil {
			return nil, err
		}
	}
	if q.Ask {
		ev.res.IsAsk = true
		ev.res.Answer = len(ev.res.Rows) > 0
		ev.res.Rows, ev.res.Vars = nil, nil
		return ev.res, nil
	}
	ev.applyModifiers()
	return ev.res, nil
}

// expandUnions returns the branches of the query: the required patterns
// joined with one alternative from every UNION clause (cross product).
func expandUnions(q *Query) [][]Pattern {
	branches := [][]Pattern{append([]Pattern(nil), q.Patterns...)}
	for _, u := range q.Unions {
		var next [][]Pattern
		for _, branch := range branches {
			for _, alt := range u {
				nb := make([]Pattern, 0, len(branch)+len(alt))
				nb = append(nb, branch...)
				nb = append(nb, alt...)
				next = append(next, nb)
			}
		}
		branches = next
	}
	return branches
}

// resolve maps the constants of pats to dictionary ids.
func (ev *evaluator) resolve(pats []Pattern) []idPattern {
	out := make([]idPattern, len(pats))
	for i, p := range pats {
		out[i] = idPattern{pat: p, resolved: true}
		for j, term := range [3]Term{p.S, p.P, p.O} {
			if term.Kind != Const {
				continue
			}
			id, ok := ev.dict.Lookup(term.RDF)
			if !ok {
				out[i].resolved = false
				break
			}
			out[i].ids[j] = id
		}
	}
	return out
}

// runBranch evaluates one union branch.
func (ev *evaluator) runBranch(pats []idPattern, optionals [][]idPattern) error {
	var br *obs.Span
	if ev.tr != nil {
		br = ev.tr.Child("branch")
		defer br.Finish()
	}
	for i := range pats {
		if !pats[i].resolved {
			// Some constant unknown: the branch has no solutions.
			br.Set("unresolvable", pats[i].pat.String())
			return nil
		}
	}
	// Plan: a memoized join order for this shape and branch when the plan
	// cache holds one built under the current statistics epoch, otherwise
	// cost-based join ordering.
	branch := ev.branchIdx
	ev.branchIdx++
	var order []int
	var hints []stepHint
	planCacheAttr := ""
	if ev.plans != nil && ev.shape != "" {
		var ok bool
		order, hints, ok = ev.plans.get(ev.shape, branch, len(pats), ev.pl.statsEpoch.Load())
		if ok {
			ev.pl.planHits.Add(1)
			planCacheAttr = "hit"
		} else {
			ev.pl.planMisses.Add(1)
			planCacheAttr = "miss"
		}
	}
	if order == nil {
		order, hints = planOrderJoin(ev.sum, pats)
		if planCacheAttr == "miss" {
			ev.plans.put(ev.shape, branch, len(pats), ev.pl.statsEpoch.Load(), order, hints)
		}
	}
	ev.batch.stepHints = hints

	// Record the chosen plan — pattern order plus the per-step
	// cardinality estimates the planner saw — and hand the branch span to
	// the batch engine so each step gets its own child with actuals.
	var ests []float64
	if br != nil {
		ests = ev.estimateSteps(pats, order)
		plan := br.Child("plan")
		plan.Set("planner", "cost")
		if planCacheAttr != "" {
			plan.Set("planCache", planCacheAttr)
		}
		var ob strings.Builder
		for si, pi := range order {
			if si > 0 {
				ob.WriteString(" ; ")
			}
			ob.WriteString(pats[pi].pat.String())
		}
		plan.Set("order", ob.String())
		plan.Finish()
		ev.batch.branchSp = br
		ev.batch.stepEsts = ests
		defer func() { ev.batch.branchSp, ev.batch.stepEsts = nil, nil }()
	}
	if ev.q.Explain == ExplainPlan {
		// EXPLAIN without ANALYZE: emit the plan's step spans with
		// estimates only; no join step runs.
		for si, pi := range order {
			sp := br.Child("step[" + pats[pi].pat.String() + "]")
			if ests != nil {
				sp.SetInt("estRows", int64(ests[si]))
			}
			sp.Finish()
		}
		return nil
	}

	// Stage filters: filter k runs at the earliest step after which all
	// its variables are bound; filters mentioning optional (or absent)
	// variables wait until emit time.
	branchVars := map[string]bool{}
	for i := range pats {
		for _, v := range pats[i].pat.Vars() {
			branchVars[v] = true
		}
	}
	ev.branchVars = branchVars
	stepFilters := make([][]Filter, len(order)+1)
	var lateFilters []Filter
	for _, f := range ev.q.Filters {
		step, late := 0, false
		for _, v := range f.Vars() {
			if !branchVars[v] {
				late = true
				break
			}
			for si, pi := range order {
				has := false
				for _, pv := range pats[pi].pat.Vars() {
					if pv == v {
						has = true
						break
					}
				}
				if has && si+1 > step {
					step = si + 1
					break
				}
			}
		}
		if late {
			lateFilters = append(lateFilters, f)
		} else {
			stepFilters[step] = append(stepFilters[step], f)
		}
	}

	// Join the required patterns with the columnar batch engine; rows
	// that survive are materialized (or extended by OPTIONAL groups)
	// from the binding table.
	return ev.batch.runBatch(pats, order, stepFilters, optionals, lateFilters)
}

// runOptionals extends the current binding with optional group g onward,
// then emits. An optional group that matches produces one solution per
// match; a group that does not match leaves its variables unbound.
func (ev *evaluator) runOptionals(optionals [][]idPattern, g int, lateFilters []Filter) error {
	if ev.done {
		return nil
	}
	if g == len(optionals) {
		return ev.emit(lateFilters)
	}
	group := optionals[g]
	resolved := true
	for i := range group {
		if !group[i].resolved {
			resolved = false
			break
		}
	}
	matched := false
	if resolved {
		var matchGroup func(i int) error
		matchGroup = func(i int) error {
			if ev.done {
				return nil
			}
			if i == len(group) {
				matched = true
				return ev.runOptionals(optionals, g+1, lateFilters)
			}
			p := &group[i]
			s, sVar := resolvePos(p, 0, ev.binding)
			pr, pVar := resolvePos(p, 1, ev.binding)
			o, oVar := resolvePos(p, 2, ev.binding)
			var walkErr error
			merr := ev.src.Match(s, pr, o, func(ms, mp, mo core.ID) bool {
				if !ev.tickOK() {
					return false
				}
				if sVar != "" {
					ev.binding[sVar] = ms
				}
				if pVar != "" {
					if pVar == sVar && mp != ms {
						return true
					}
					ev.binding[pVar] = mp
				}
				if oVar != "" {
					if (oVar == sVar && mo != ms) || (oVar == pVar && mo != mp) {
						return true
					}
					ev.binding[oVar] = mo
				}
				walkErr = matchGroup(i + 1)
				return walkErr == nil && !ev.done
			})
			for _, v := range []string{sVar, pVar, oVar} {
				if v != "" {
					delete(ev.binding, v)
				}
			}
			if walkErr != nil {
				return walkErr
			}
			if ev.ctxErr != nil {
				return ev.ctxErr
			}
			return merr
		}
		if err := matchGroup(0); err != nil {
			return err
		}
	}
	if !matched {
		// No extension: keep going with the group's variables unbound.
		return ev.runOptionals(optionals, g+1, lateFilters)
	}
	return nil
}

// bindingLookup reads a variable from the tuple-at-a-time binding map;
// it is the lookup used by the OPTIONAL matcher. The batch engine
// passes column-backed lookups instead.
func (ev *evaluator) bindingLookup(name string) (core.ID, bool) {
	id, ok := ev.binding[name]
	return id, ok
}

// appendIDKey appends the fixed-width binary encoding of one id to a
// DISTINCT / GROUP BY key: 8 bytes big-endian. None (never assigned to
// a term) encodes an unbound optional variable.
func appendIDKey(buf []byte, id core.ID) []byte {
	return binary.BigEndian.AppendUint64(buf, uint64(id))
}

// decodeCached decodes id through the per-query term cache, so each
// distinct term is materialized once no matter how many rows carry it.
func (ev *evaluator) decodeCached(id core.ID) (rdf.Term, error) {
	if t, ok := ev.termCache[id]; ok {
		return t, nil
	}
	t, err := ev.dict.Decode(id)
	if err != nil {
		return rdf.Term{}, err
	}
	ev.termCache[id] = t
	return t, nil
}

// emit projects the current binding into a row, applying late filters
// and DISTINCT.
func (ev *evaluator) emit(lateFilters []Filter) error {
	return ev.emitWith(ev.bindingLookup, lateFilters)
}

// emitWith projects one solution, reading variables through lookup —
// the binding map on the tuple-at-a-time path, a table column on the
// batch path. Late materialization: DISTINCT is decided on the binary
// ID tuple and terms are decoded only for rows that are actually kept.
func (ev *evaluator) emitWith(lookup func(string) (core.ID, bool), lateFilters []Filter) error {
	for _, f := range lateFilters {
		ok, err := ev.evalFilterWith(f, lookup)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	if ev.aggMode {
		return ev.foldWith(lookup)
	}
	if ev.distinct != nil {
		key := ev.keyBuf[:0]
		for _, name := range ev.vars {
			id, ok := lookup(name)
			if !ok && ev.branchVars[name] {
				return fmt.Errorf("sparql: internal: variable ?%s unbound at solution", name)
			}
			key = appendIDKey(key, id) // unbound: id == None
		}
		ev.keyBuf = key
		if ev.distinct[string(key)] {
			return nil
		}
		ev.distinct[string(key)] = true
	}
	if ev.mem != nil {
		if err := ev.mem.Grow(ev.rowBytes); err != nil {
			return err
		}
	}
	row := make(Row, len(ev.vars))
	for _, name := range ev.vars {
		id, ok := lookup(name)
		if !ok {
			if ev.branchVars[name] {
				return fmt.Errorf("sparql: internal: variable ?%s unbound at solution", name)
			}
			continue
		}
		term, err := ev.decodeCached(id)
		if err != nil {
			return err
		}
		row[name] = term
	}
	ev.res.Rows = append(ev.res.Rows, row)
	if len(ev.q.OrderBy) > 0 {
		keys := make([]orderVal, len(ev.q.OrderBy))
		for i, k := range ev.q.OrderBy {
			if id, ok := lookup(k.Var); ok {
				term, err := ev.decodeCached(id)
				if err != nil {
					return err
				}
				keys[i] = orderVal{term: term, bound: true}
			}
		}
		ev.orderKeys = append(ev.orderKeys, keys)
	}
	if ev.target > 0 && len(ev.res.Rows) >= ev.target {
		ev.done = true
	}
	return nil
}

// foldWith accumulates the current solution into its GROUP BY bucket,
// keyed by the fixed-width binary encoding of the group ids.
func (ev *evaluator) foldWith(lookup func(string) (core.ID, bool)) error {
	key := ev.keyBuf[:0]
	for _, name := range ev.q.GroupBy {
		id, _ := lookup(name) // unbound: id == None
		key = appendIDKey(key, id)
	}
	ev.keyBuf = key
	g, ok := ev.groups[string(key)]
	if !ok {
		if ev.mem != nil {
			if err := ev.mem.Grow(ev.rowBytes); err != nil {
				return err
			}
		}
		g = &aggGroup{
			keyIDs:   make(map[string]core.ID, len(ev.q.GroupBy)),
			counts:   make([]int, len(ev.q.Aggregates)),
			distinct: make([]map[core.ID]struct{}, len(ev.q.Aggregates)),
		}
		for _, name := range ev.q.GroupBy {
			if id, ok := lookup(name); ok {
				g.keyIDs[name] = id
			}
		}
		for i, a := range ev.q.Aggregates {
			if a.Distinct {
				g.distinct[i] = make(map[core.ID]struct{})
			}
		}
		ev.groups[string(key)] = g
		ev.groupSeq = append(ev.groupSeq, string(key))
	}
	for i, a := range ev.q.Aggregates {
		if a.Var == "" {
			g.counts[i]++
			continue
		}
		id, bound := lookup(a.Var)
		if !bound {
			continue // COUNT skips unbound (optional) values, as in SPARQL
		}
		if a.Distinct {
			g.distinct[i][id] = struct{}{}
		} else {
			g.counts[i]++
		}
	}
	return nil
}

// materializeGroups turns the GROUP BY buckets into result rows, in
// group-key order for determinism when no ORDER BY is given.
func (ev *evaluator) materializeGroups() error {
	keys := append([]string(nil), ev.groupSeq...)
	sort.Strings(keys)
	for _, key := range keys {
		g := ev.groups[key]
		row := make(Row, len(ev.vars))
		for _, name := range ev.q.Vars {
			if id, ok := g.keyIDs[name]; ok {
				term, err := ev.dict.Decode(id)
				if err != nil {
					return err
				}
				row[name] = term
			}
		}
		for i, a := range ev.q.Aggregates {
			n := g.counts[i]
			if a.Distinct {
				n = len(g.distinct[i])
			}
			row[a.As] = rdf.NewLiteral(strconv.Itoa(n))
		}
		ev.res.Rows = append(ev.res.Rows, row)
	}
	return nil
}

// evalFilterWith evaluates f with variables read through lookup — the
// binding map on the tuple-at-a-time path, a table column on the batch
// path. A filter whose variable is unbound (possible only for optional
// variables) fails.
func (ev *evaluator) evalFilterWith(f Filter, lookup func(string) (core.ID, bool)) (bool, error) {
	left, lok, err := ev.operandWith(f.Left, lookup)
	if err != nil {
		return false, err
	}
	right, rok, err := ev.operandWith(f.Right, lookup)
	if err != nil {
		return false, err
	}
	if !lok || !rok {
		return false, nil
	}
	switch f.Op {
	case "=":
		return left == right, nil
	case "!=":
		return left != right, nil
	}
	// Ordering comparison: numeric when both operands are numeric
	// literals, lexicographic on the term value otherwise.
	var cmp int
	lf, lerr := strconv.ParseFloat(left.Value, 64)
	rf, rerr := strconv.ParseFloat(right.Value, 64)
	if lerr == nil && rerr == nil {
		switch {
		case lf < rf:
			cmp = -1
		case lf > rf:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(left.Value, right.Value)
	}
	switch f.Op {
	case "<":
		return cmp < 0, nil
	case "<=":
		return cmp <= 0, nil
	case ">":
		return cmp > 0, nil
	case ">=":
		return cmp >= 0, nil
	default:
		return false, fmt.Errorf("sparql: unknown filter operator %q", f.Op)
	}
}

// operandWith resolves a filter operand to a term through lookup; ok is
// false when the operand is an unbound variable.
func (ev *evaluator) operandWith(t Term, lookup func(string) (core.ID, bool)) (rdf.Term, bool, error) {
	if t.Kind == Const {
		return t.RDF, true, nil
	}
	id, ok := lookup(t.Name)
	if !ok {
		return rdf.Term{}, false, nil
	}
	term, err := ev.decodeCached(id)
	if err != nil {
		return rdf.Term{}, false, err
	}
	return term, true, nil
}

// applyModifiers sorts, offsets and limits the collected rows.
func (ev *evaluator) applyModifiers() {
	q := ev.q
	if ev.aggMode && len(q.OrderBy) > 0 {
		// In grouping mode every sort variable is an output column
		// (group key or aggregate alias), so sort on row values.
		sort.SliceStable(ev.res.Rows, func(i, j int) bool {
			for _, k := range q.OrderBy {
				a, aok := ev.res.Rows[i][k.Var]
				b, bok := ev.res.Rows[j][k.Var]
				if aok != bok {
					if k.Desc {
						return aok
					}
					return !aok
				}
				c := compareTerms(a, b)
				if c != 0 {
					if k.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
	} else if len(q.OrderBy) > 0 {
		type indexed struct {
			row  Row
			keys []orderVal
		}
		sols := make([]indexed, len(ev.res.Rows))
		for i := range sols {
			sols[i] = indexed{row: ev.res.Rows[i], keys: ev.orderKeys[i]}
		}
		sort.SliceStable(sols, func(i, j int) bool {
			for ki, k := range q.OrderBy {
				a, b := sols[i].keys[ki], sols[j].keys[ki]
				// Unbound sorts before bound, as in SPARQL.
				if a.bound != b.bound {
					if k.Desc {
						return a.bound
					}
					return !a.bound
				}
				c := compareTerms(a.term, b.term)
				if c != 0 {
					if k.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		for i := range sols {
			ev.res.Rows[i] = sols[i].row
		}
	}
	rows := ev.res.Rows
	if q.Offset > 0 {
		if q.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[q.Offset:]
		}
	}
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	ev.res.Rows = rows
}

// compareTerms orders terms numerically when both values are numbers,
// lexicographically by value otherwise.
func compareTerms(a, b rdf.Term) int {
	af, aerr := strconv.ParseFloat(a.Value, 64)
	bf, berr := strconv.ParseFloat(b.Value, 64)
	if aerr == nil && berr == nil {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a.String(), b.String())
}

// resolvePos returns the id to use for position j (a constant id, a
// bound variable's id, or None) and the variable name to bind if the
// position is an unbound variable ("" otherwise).
func resolvePos(p *idPattern, j int, binding map[string]core.ID) (core.ID, string) {
	term := p.term(j)
	if term.Kind == Const {
		return p.ids[j], ""
	}
	if id, ok := binding[term.Name]; ok {
		return id, ""
	}
	return core.None, term.Name
}

// estimateSteps prices each step of the chosen order for the trace,
// simulating the evolving join: the cost model's estimated intermediate
// cardinality after each step (directly comparable to the step's
// rowsOut actual in EXPLAIN ANALYZE).
func (ev *evaluator) estimateSteps(pats []idPattern, order []int) []float64 {
	ests := make([]float64, len(order))
	js := newJoinState(ev.sum)
	for si, pi := range order {
		ests[si] = js.cost(&pats[pi])
		js.advance(&pats[pi])
	}
	return ests
}

// SortRows orders rows lexicographically by the projection variables,
// for deterministic presentation.
func (r *Result) SortRows() {
	sort.Slice(r.Rows, func(i, j int) bool {
		for _, v := range r.Vars {
			a, b := r.Rows[i][v].String(), r.Rows[j][v].String()
			if a != b {
				return a < b
			}
		}
		return false
	})
}
