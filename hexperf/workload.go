package main

// Workload definitions: the data each workload loads, the server flags
// it runs under, and the seeded request generators that drive it.
// Generators are pure functions of the seed, so the same seed always
// yields a byte-identical request stream (see streamBytes).

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"

	"hexastore/internal/barton"
	"hexastore/internal/lubm"
	"hexastore/internal/rdf"
)

// scale holds the data sizes; the self-test shrinks them.
type scale struct {
	lubmUniversities int
	bartonRecords    int
}

var fullScale = scale{lubmUniversities: 30, bartonRecords: 10000}

// lubm.Config defaults, mirrored to number the generated entities.
const (
	deptsPerUniv   = 15
	coursesPerDept = 20
	assocPerDept   = 4
)

// Workload-wide constants. writeRate is lubm_write's offered rate, far
// below what a 2-core machine serves, so that requests seldom queue
// behind one another. writeWindow and writeCompactThreshold make each
// of the two shards compact twice in a 15-second run (see writeGen).
const (
	hotPoolSize           = 64
	hotZipfS              = 1.3
	uniformPoolSize       = 1024
	writeRate             = 200.0
	writeShare            = 0.20
	writeCompactThreshold = 750
	writeWindow           = 128
	diskPoolDivisor       = 8
)

type workload struct {
	name    string
	why     string
	dataset string // "lubm" or "barton"
	clients int
	// rate is the open-loop offered rate in requests per second; 0
	// means a closed loop.
	rate float64
	// warmup is the number of sequential requests sent before timing;
	// they fill the caches and double as the traced run's fidelity
	// probe, so they are a fixed count, not a duration.
	warmup int
	// windows is the number of equal time windows the timed phase is
	// cut into (see quietWindows); qps and p50_ms are medians of
	// per-window figures, so a burst of interference, or a compaction
	// stall, in a few windows moves them little. barton_paper sends
	// about 30 requests a second, one round of BQ1-BQ7 every quarter
	// second, and uses three windows: in shorter ones the partial rounds
	// at the edges tilt the mix of queries, and with it the median.
	windows int
}

var workloads = []*workload{
	{
		name:    "lubm_hot",
		why:     "zipfian repeats of 64 LUBM queries at default caches: the per-request path alone (HTTP, admission, parse, cache lookup, JSON)",
		dataset: "lubm", clients: 1, warmup: 512, windows: 20,
	},
	{
		name:    "barton_paper",
		why:     "the paper's BQ1-BQ7 end to end, one client, result cache off: merge joins, aggregation, decode and encoding of large answers",
		dataset: "barton", clients: 1, warmup: 14, windows: 3,
	},
	{
		name:    "lubm_disk",
		why:     "uniform LUBM queries on the disk store with a buffer pool of 1/8 of its pages: B+-tree descents and pool misses dominate",
		dataset: "lubm", clients: 1, warmup: 1024, windows: 20,
	},
	{
		name:    "lubm_write",
		why:     "open loop at 200 req/s on 2 WAL shards, 20% INSERT/DELETE DATA: WAL fsync, delta publish, compaction, cache churn, shard merge",
		dataset: "lubm", clients: 2, rate: writeRate, warmup: 512, windows: 20,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// serverFlags returns the hexserver flags of the workload (beyond -addr
// and -load). dir is a fresh directory for the store's files; pages is
// the disk store's page count, which sizes lubm_disk's buffer pool.
func (w *workload) serverFlags(dir string, pages int) []string {
	switch w.name {
	case "barton_paper":
		return []string{"-result-cache-bytes", "0"}
	case "lubm_disk":
		return []string{"-disk", dir + "/store", "-cache", fmt.Sprint(diskPool(pages)), "-result-cache-bytes", "0"}
	case "lubm_write":
		return []string{"-shards", "2", "-wal", dir + "/wal", "-compact-threshold", fmt.Sprint(writeCompactThreshold)}
	}
	return nil
}

// diskPool is lubm_disk's buffer-pool size in pages.
func diskPool(pages int) int {
	n := pages / diskPoolDivisor
	if n < 16 {
		n = 16
	}
	return n
}

// generate returns the workload's data set for the seed.
func (w *workload) generate(sc scale, seed int64) []rdf.Triple {
	if w.dataset == "barton" {
		return barton.Config{Records: sc.bartonRecords, Seed: seed}.GenerateAll()
	}
	return lubm.Config{Universities: sc.lubmUniversities, Seed: seed}.GenerateAll()
}

// request is one HTTP request of a stream.
type request struct {
	class string // template name, bq1..bq7, insert, delete or probe
	// text is the query or update text; path is the pre-encoded URL
	// path and query string of a GET query (empty for updates).
	text string
	path string
	// pool is the index of a pooled query text whose answer is static
	// for the run (-1 for writes and probes).
	pool int
	// ordered marks queries whose row order is part of the answer.
	ordered bool
	// student is the subject a write or probe touches, and present
	// whether a probe must find it.
	student string
	present bool
}

func (r request) update() bool { return r.class == "insert" || r.class == "delete" }

// pooledQuery is one (template, constant) query of a workload's pool.
type pooledQuery struct {
	class   string
	text    string
	ordered bool
}

func newQueryRequest(q pooledQuery, pool int) request {
	return request{
		class: q.class, text: q.text, pool: pool, ordered: q.ordered,
		path: "/sparql?query=" + url.QueryEscape(q.text),
	}
}

// lubmTemplates are the LUBM read templates shared by lubm_hot,
// lubm_disk and lubm_write; each binds one constant drawn from the
// read part of the data (every university but the last, which the
// writes of lubm_write use).
var lubmTemplates = []string{
	"course_takers", "dept_members_opt", "related_to", "about",
	"advisor_cycle", "dept_course_counts", "dept_names_top", "ask_enrolled",
}

var bartonClasses = []string{"bq1", "bq2", "bq3", "bq4", "bq5", "bq6", "bq7"}

// lubmQuery instantiates template tmpl with constants drawn from rng.
func lubmQuery(tmpl string, sc scale, rng *rand.Rand) pooledQuery {
	readDepts := (sc.lubmUniversities - 1) * deptsPerUniv
	dept := rng.Intn(readDepts)
	d := lubm.Department(dept).String()
	c := lubm.Course(dept*coursesPerDept + rng.Intn(coursesPerDept)).String()
	p := rdf.Term.String
	switch tmpl {
	case "course_takers":
		return pooledQuery{tmpl, fmt.Sprintf("SELECT ?s ?d WHERE { ?s %s %s . ?s %s ?d }",
			p(lubm.PropTakesCourse), c, p(lubm.PropMemberOf)), false}
	case "dept_members_opt":
		return pooledQuery{tmpl, fmt.Sprintf("SELECT ?x ?a WHERE { ?x %s %s OPTIONAL { ?x %s ?a } }",
			p(lubm.PropMemberOf), d, p(lubm.PropAdvisor)), false}
	case "related_to":
		return pooledQuery{tmpl, fmt.Sprintf("SELECT ?s ?p WHERE { ?s ?p %s }", d), false}
	case "about":
		r := lubm.AssociateProfessor(dept*assocPerDept + rng.Intn(assocPerDept)).String()
		return pooledQuery{tmpl, fmt.Sprintf("SELECT ?p ?x WHERE { { %s ?p ?x } UNION { ?x ?p %s } }", r, r), false}
	case "advisor_cycle":
		return pooledQuery{tmpl, fmt.Sprintf("SELECT ?student ?course WHERE { ?student %s ?prof . ?prof %s ?course . ?student %s ?course . ?prof %s %s }",
			p(lubm.PropAdvisor), p(lubm.PropTeacherOf), p(lubm.PropTakesCourse), p(lubm.PropWorksFor), d), false}
	case "dept_course_counts":
		return pooledQuery{tmpl, fmt.Sprintf("SELECT ?c (COUNT(*) AS ?n) WHERE { ?c %s %s . ?s %s ?c } GROUP BY ?c",
			p(lubm.PropOfferedBy), d, p(lubm.PropTakesCourse)), false}
	case "dept_names_top":
		return pooledQuery{tmpl, fmt.Sprintf("SELECT ?x ?n WHERE { ?x %s %s . ?x %s ?n } ORDER BY ?n LIMIT 10",
			p(lubm.PropMemberOf), d, p(lubm.PropName)), true}
	case "ask_enrolled":
		// Half the draws pair the course with its own department (true),
		// half with a random one (almost always false).
		if rng.Intn(2) == 0 {
			d = lubm.Department(rng.Intn(readDepts)).String()
		}
		return pooledQuery{tmpl, fmt.Sprintf("ASK { ?s %s %s . ?s %s %s }",
			p(lubm.PropTakesCourse), c, p(lubm.PropMemberOf), d), false}
	}
	panic("hexperf: unknown template " + tmpl)
}

// lubmPool draws n (template, constant) pairs, templates in rotation.
// The seed picks the constants only: pool index i always holds template
// i mod 8, so lubm_hot's zipfian head is the same templates for every
// seed, and seeds differ by data and constants, not by which query
// shapes are hot.
func lubmPool(sc scale, seed int64, n int) []pooledQuery {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]pooledQuery, n)
	for i := range pool {
		pool[i] = lubmQuery(lubmTemplates[i%len(lubmTemplates)], sc, rng)
	}
	return pool
}

// barton query texts. SPARQL here has no HAVING and no IN/OR, so two
// steps are the client's: BQ3/BQ4 keep only pairs counted more than
// once, and BQ7 keeps only the Encoding and Type triples.
func bartonPool() []pooledQuery {
	p := rdf.Term.String
	text := p(barton.TypeText)
	ty := p(barton.PropType)
	sel := fmt.Sprintf("?s %s %s", ty, text)
	// BQ6's inferred branch needs "type of ?s is not Text"; filters are
	// not allowed inside UNION groups, so the non-Text types of records
	// that can carry Origin are enumerated (Date records never do).
	var inferred []string
	for _, t := range []rdf.Term{barton.TypeNotated, barton.TypeSound, barton.TypeImage, barton.TypeMap} {
		inferred = append(inferred, fmt.Sprintf("{ ?s %s %s . ?s %s ?r . ?r %s %s . ?s %s %s . ?s ?p ?x }",
			p(barton.PropOrigin), p(barton.OriginDLC), p(barton.PropRecords), ty, text, ty, p(t)))
	}
	return []pooledQuery{
		{"bq1", fmt.Sprintf("SELECT ?o (COUNT(*) AS ?n) WHERE { ?s %s ?o } GROUP BY ?o", ty), false},
		{"bq2", fmt.Sprintf("SELECT ?p (COUNT(*) AS ?n) WHERE { %s . ?s ?p ?x } GROUP BY ?p", sel), false},
		{"bq3", fmt.Sprintf("SELECT ?p ?x (COUNT(*) AS ?n) WHERE { %s . ?s ?p ?x } GROUP BY ?p ?x", sel), false},
		{"bq4", fmt.Sprintf("SELECT ?p ?x (COUNT(*) AS ?n) WHERE { %s . ?s %s %s . ?s ?p ?x } GROUP BY ?p ?x",
			sel, p(barton.PropLanguage), p(barton.LangFrench)), false},
		{"bq5", fmt.Sprintf("SELECT DISTINCT ?s ?t WHERE { ?s %s %s . ?s %s ?r . ?r %s ?t . FILTER (?t != %s) }",
			p(barton.PropOrigin), p(barton.OriginDLC), p(barton.PropRecords), ty, text), false},
		{"bq6", fmt.Sprintf("SELECT ?p (COUNT(*) AS ?n) WHERE { { %s . ?s ?p ?x } UNION %s } GROUP BY ?p",
			sel, strings.Join(inferred, " UNION ")), false},
		{"bq7", fmt.Sprintf("SELECT ?s ?p ?o WHERE { ?s %s %s . ?s ?p ?o }",
			p(barton.PropPoint), p(barton.PointEnd)), false},
	}
}

// pool returns the workload's static query pool.
func (w *workload) pool(sc scale, seed int64) []pooledQuery {
	switch w.name {
	case "barton_paper":
		return bartonPool()
	case "lubm_hot":
		return lubmPool(sc, seed, hotPoolSize)
	}
	return lubmPool(sc, seed, uniformPoolSize)
}

// generator yields one connection's requests in order.
type generator interface{ next() request }

// newGenerator returns the request generator of connection conn. The
// warm-up stream is connection -1, with its own seed and, for writes,
// its own student names.
func (w *workload) newGenerator(sc scale, seed int64, pool []pooledQuery, conn int) generator {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(conn) + 17))
	switch w.name {
	case "lubm_hot":
		return &zipfGen{pool: pool, zipf: rand.NewZipf(rng, hotZipfS, 1, uint64(len(pool)-1))}
	case "barton_paper":
		return &roundGen{pool: pool, rng: rng}
	case "lubm_write":
		return &writeGen{pool: pool, rng: rng, sc: sc, conn: conn}
	}
	return &uniformGen{pool: pool, rng: rng}
}

type zipfGen struct {
	pool []pooledQuery
	zipf *rand.Zipf
}

func (g *zipfGen) next() request {
	i := int(g.zipf.Uint64())
	return newQueryRequest(g.pool[i], i)
}

type uniformGen struct {
	pool []pooledQuery
	rng  *rand.Rand
}

func (g *uniformGen) next() request {
	i := g.rng.Intn(len(g.pool))
	return newQueryRequest(g.pool[i], i)
}

// roundGen sends every pool query once per round, in a fresh seeded
// order each round: equal weight, no order effects.
type roundGen struct {
	pool  []pooledQuery
	rng   *rand.Rand
	order []int
}

func (g *roundGen) next() request {
	if len(g.order) == 0 {
		g.order = g.rng.Perm(len(g.pool))
	}
	i := g.order[0]
	g.order = g.order[1:]
	return newQueryRequest(g.pool[i], i)
}

// writeGen mixes uniform template reads with writes. A write inserts a
// new graduate student (6 triples) until the connection has
// writeWindow live students, and from then on deletes its oldest one
// and inserts a new one in turn, so the store's size stays level. The
// request after every write is a probe of the written student: after
// an acknowledged INSERT it must see the student, after a DELETE it
// must not. Written students belong to the last university, which no
// read constant touches, so every template answer is static for the
// run.
type writeGen struct {
	pool    []pooledQuery
	rng     *rand.Rand
	sc      scale
	conn    int
	made    int
	live    []string
	pending *request
}

func (g *writeGen) next() request {
	if g.pending != nil {
		r := *g.pending
		g.pending = nil
		return r
	}
	if g.rng.Float64() >= writeShare {
		i := g.rng.Intn(len(g.pool))
		return newQueryRequest(g.pool[i], i)
	}
	var r request
	if len(g.live) >= writeWindow {
		s := g.live[0]
		g.live = g.live[1:]
		r = request{class: "delete", student: s, pool: -1,
			text: "DELETE DATA { " + studentTriples(s, g.sc) + " }"}
	} else {
		s := fmt.Sprintf("%sBenchStudent_%d_%d", lubm.Namespace, g.conn+1, g.made)
		g.made++
		g.live = append(g.live, s)
		r = request{class: "insert", student: s, pool: -1,
			text: "INSERT DATA { " + studentTriples(s, g.sc) + " }"}
	}
	probe := request{class: "probe", student: r.student, present: r.class == "insert", pool: -1,
		text: fmt.Sprintf("SELECT ?p ?o WHERE { <%s> ?p ?o }", r.student)}
	probe.path = "/sparql?query=" + url.QueryEscape(probe.text)
	g.pending = &probe
	return r
}

// studentTriples renders the six triples of a written student. Its
// department, course and advisor are drawn from the last university;
// they are derived from the student's name, so the DELETE DATA of a
// student names exactly the triples its INSERT DATA added.
func studentTriples(s string, sc scale) string {
	h := 0
	for _, c := range s {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	dept := (sc.lubmUniversities-1)*deptsPerUniv + h%deptsPerUniv
	local := strings.TrimPrefix(s, lubm.Namespace)
	ts := []rdf.Triple{
		rdf.T(rdf.NewIRI(s), lubm.PropType, lubm.ClassGradStudent),
		rdf.T(rdf.NewIRI(s), lubm.PropMemberOf, lubm.Department(dept)),
		rdf.T(rdf.NewIRI(s), lubm.PropName, rdf.NewLiteral(local)),
		rdf.T(rdf.NewIRI(s), lubm.PropEmail, rdf.NewLiteral(local+"@example.edu")),
		rdf.T(rdf.NewIRI(s), lubm.PropTakesCourse, lubm.Course(dept*coursesPerDept+h%coursesPerDept)),
		rdf.T(rdf.NewIRI(s), lubm.PropAdvisor, lubm.AssociateProfessor(dept*assocPerDept+h%assocPerDept)),
	}
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.Subject.String() + " " + t.Predicate.String() + " " + t.Object.String()
	}
	return strings.Join(parts, " . ")
}

// studentTripleCount is the number of triples studentTriples renders.
const studentTripleCount = 6
