package main

// Answer checks. Every HTTP answer is reduced to a canonical text — the
// projected variables, then one line per row, rows sorted unless the
// query orders them — and compared with the canonical text of an
// independent in-process evaluation on the same data:
//
//   - LUBM templates: the package-level sparql.Exec (greedy planner, no
//     caches) over a memory Hexastore hexperf builds itself;
//   - Barton BQ1-BQ7: the hand-written BQ*Hexa plans of
//     internal/queries, the paper's own Hexastore query plans;
//   - lubm_write probes: the six triples of the written student after
//     an INSERT, nothing after a DELETE.

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hexastore/internal/barton"
	"hexastore/internal/core"
	"hexastore/internal/dictionary"
	"hexastore/internal/graph"
	"hexastore/internal/queries"
	"hexastore/internal/rdf"
	"hexastore/internal/sparql"
)

// answerJSON is the SPARQL 1.1 JSON results document hexserver writes.
type answerJSON struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Boolean *bool `json:"boolean"`
	Results *struct {
		Bindings []map[string]struct {
			Type  string `json:"type"`
			Value string `json:"value"`
		} `json:"bindings"`
	} `json:"results"`
}

// answer is a decoded answer: variables and rows of rendered terms
// ("" for unbound).
type answer struct {
	ask   bool
	truth bool
	vars  []string
	rows  [][]string
}

func renderTerm(t rdf.Term) string {
	switch t.Kind {
	case rdf.IRI:
		return "u:" + t.Value
	case rdf.Blank:
		return "b:" + t.Value
	}
	return "l:" + t.Value
}

var jsonKinds = map[string]string{"uri": "u:", "literal": "l:", "bnode": "b:"}

// parseAnswer decodes a hexserver answer body.
func parseAnswer(body []byte) (*answer, error) {
	var doc answerJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("malformed answer: %w", err)
	}
	if doc.Boolean != nil {
		return &answer{ask: true, truth: *doc.Boolean}, nil
	}
	if doc.Results == nil {
		return nil, errors.New("malformed answer: neither results nor boolean")
	}
	a := &answer{vars: doc.Head.Vars}
	for _, b := range doc.Results.Bindings {
		row := make([]string, len(a.vars))
		for i, v := range a.vars {
			if e, ok := b[v]; ok {
				k, known := jsonKinds[e.Type]
				if !known {
					return nil, fmt.Errorf("malformed answer: term type %q", e.Type)
				}
				row[i] = k + e.Value
			}
		}
		a.rows = append(a.rows, row)
	}
	return a, nil
}

// resultAnswer converts an in-process result.
func resultAnswer(res *sparql.Result) *answer {
	if res.IsAsk {
		return &answer{ask: true, truth: res.Answer}
	}
	a := &answer{vars: res.Vars}
	for _, r := range res.Rows {
		row := make([]string, len(res.Vars))
		for i, v := range res.Vars {
			if t, ok := r[v]; ok {
				row[i] = renderTerm(t)
			}
		}
		a.rows = append(a.rows, row)
	}
	return a
}

// canon renders the answer canonically; ordered keeps the row order.
func (a *answer) canon(ordered bool) string {
	if a.ask {
		return "ASK " + strconv.FormatBool(a.truth)
	}
	lines := make([]string, len(a.rows))
	for i, r := range a.rows {
		lines[i] = strings.Join(r, "\x1f")
	}
	if !ordered {
		sort.Strings(lines)
	}
	return strings.Join(a.vars, " ") + "\n" + strings.Join(lines, "\n")
}

// clientStep applies the steps the SPARQL subset cannot express: BQ3
// and BQ4 keep (property, value) pairs counted more than once; BQ7
// keeps only the Encoding and Type triples.
func clientStep(class string, a *answer) *answer {
	if a.ask {
		return a
	}
	col := func(name string) int {
		for i, v := range a.vars {
			if v == name {
				return i
			}
		}
		return -1
	}
	keep := func(pred func(row []string) bool) *answer {
		out := &answer{vars: a.vars}
		for _, r := range a.rows {
			if pred(r) {
				out.rows = append(out.rows, r)
			}
		}
		return out
	}
	switch class {
	case "bq3", "bq4":
		n := col("n")
		return keep(func(r []string) bool {
			c, err := strconv.Atoi(strings.TrimPrefix(r[n], "l:"))
			return err == nil && c > 1
		})
	case "bq7":
		p := col("p")
		enc, typ := renderTerm(barton.PropEncoding), renderTerm(barton.PropType)
		return keep(func(r []string) bool { return r[p] == enc || r[p] == typ })
	}
	return a
}

// oracle computes expected canonical answers for a workload's pool.
type oracle struct {
	st   *core.Store
	g    graph.Graph
	pool []pooledQuery
	// memo caches expected answers per pool index.
	memo map[int]string
}

func newOracle(triples []rdf.Triple, pool []pooledQuery) *oracle {
	b := core.NewBuilder(nil)
	b.AddAll(core.EncodeTriples(b.Dictionary(), triples, 0))
	st := b.BuildParallel(0)
	return &oracle{st: st, g: graph.Memory(st), pool: pool, memo: map[int]string{}}
}

// expected returns the canonical expected answer of pool query i.
func (o *oracle) expected(i int) (string, error) {
	if s, ok := o.memo[i]; ok {
		return s, nil
	}
	q := o.pool[i]
	var a *answer
	if strings.HasPrefix(q.class, "bq") {
		a = o.barton(q.class)
	} else {
		res, err := sparql.Exec(o.g, q.text)
		if err != nil {
			return "", fmt.Errorf("oracle %s: %w", q.class, err)
		}
		a = resultAnswer(res)
	}
	s := a.canon(q.ordered)
	o.memo[i] = s
	return s, nil
}

// barton answers a BQ class with the paper's hand-written plan.
func (o *oracle) barton(class string) *answer {
	ids := queries.ResolveBarton(o.st.Dictionary())
	d := o.st.Dictionary()
	term := func(id dictionary.ID) string { return renderTerm(d.MustDecode(id)) }
	count := func(n int) string { return "l:" + strconv.Itoa(n) }
	a := &answer{}
	switch class {
	case "bq1", "bq2", "bq6":
		var m map[dictionary.ID]int
		a.vars = []string{"p", "n"}
		switch class {
		case "bq1":
			m, a.vars = queries.BQ1Hexa(o.st, ids), []string{"o", "n"}
		case "bq2":
			m = queries.BQ2Hexa(o.st, ids, nil)
		default:
			m = queries.BQ6Hexa(o.st, ids, nil)
		}
		for k, n := range m {
			a.rows = append(a.rows, []string{term(k), count(n)})
		}
	case "bq3", "bq4":
		m := queries.BQ3Hexa(o.st, ids, nil)
		if class == "bq4" {
			m = queries.BQ4Hexa(o.st, ids, nil)
		}
		a.vars = []string{"p", "x", "n"}
		for k, n := range m {
			a.rows = append(a.rows, []string{term(k[0]), term(k[1]), count(n)})
		}
	case "bq5":
		a.vars = []string{"s", "t"}
		for k := range queries.BQ5Hexa(o.st, ids) {
			a.rows = append(a.rows, []string{term(k[0]), term(k[1])})
		}
	case "bq7":
		a.vars = []string{"s", "p", "o"}
		for k := range queries.BQ7Hexa(o.st, ids) {
			a.rows = append(a.rows, []string{term(k[0]), term(k[1]), term(k[2])})
		}
	}
	return a
}

// checkPooled compares one distinct answer body of pool query i with
// the oracle. It returns the answer's row count and canonical text.
func checkPooled(o *oracle, i int, body []byte) (int, string, error) {
	q := o.pool[i]
	got, err := parseAnswer(body)
	if err != nil {
		return 0, "", err
	}
	c := clientStep(q.class, got).canon(q.ordered)
	want, err := o.expected(i)
	if err != nil {
		return len(got.rows), c, err
	}
	if c != want {
		return len(got.rows), c, fmt.Errorf("wrong answer to %s: got %d canonical bytes, want %d (%.120q vs %.120q)",
			q.class, len(c), len(want), c, want)
	}
	return len(got.rows), c, nil
}

// checkProbe checks a probe of a written student and returns the
// answer's canonical text.
func checkProbe(sc scale, r request, body []byte) (string, error) {
	got, err := parseAnswer(body)
	if err != nil {
		return "", err
	}
	want := &answer{vars: []string{"p", "o"}}
	if r.present {
		for _, line := range strings.Split(studentTriples(r.student, sc), " . ") {
			t, err := rdf.ParseTriple(line + " .")
			if err != nil {
				return "", fmt.Errorf("probe: %w", err)
			}
			want.rows = append(want.rows, []string{renderTerm(t.Predicate), renderTerm(t.Object)})
		}
	}
	c := got.canon(false)
	if c != want.canon(false) {
		return c, fmt.Errorf("probe of %s (present=%v): got %d rows, want %d", r.student, r.present, len(got.rows), len(want.rows))
	}
	return c, nil
}

// checkUpdate checks the acknowledgement of an INSERT or DELETE.
func checkUpdate(r request, body []byte) error {
	var res sparql.UpdateResult
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("malformed update answer: %w", err)
	}
	want := sparql.UpdateResult{Inserted: studentTripleCount}
	if r.class == "delete" {
		want = sparql.UpdateResult{Deleted: studentTripleCount}
	}
	if res != want {
		return fmt.Errorf("%s of %s: got %+v, want %+v", r.class, r.student, res, want)
	}
	return nil
}
