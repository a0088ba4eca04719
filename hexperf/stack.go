package main

// The traced run's in-process stack: each backend is built through the
// same public calls cmd/hexserver's main makes, wrapped in the tracing
// graph, and served by server.NewGraph under hexserver's default
// settings on a loopback listener inside hexperf.

import (
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/dictionary"
	"hexastore/internal/disk"
	"hexastore/internal/govern"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
	"hexastore/internal/server"
	"hexastore/internal/shard"
	"hexastore/internal/sparql"
)

// ID is a dictionary id.
type ID = dictionary.ID

// stack is a running in-process server.
type stack struct {
	http     *http.Server
	addr     string
	served   chan error
	mains    []*core.Store
	disk     *disk.Store
	overlays []*delta.Overlay
}

// buildStack loads ntPath into the workload's backend, recording a
// set-up span per step, and serves it on a loopback port.
func buildStack(w *workload, tr *tracer, ntPath, dir string) (*stack, error) {
	workers := runtime.GOMAXPROCS(0)
	sparql.SetMaxWorkers(workers)
	t0 := time.Now()
	triples, err := readNTriples(ntPath)
	if err != nil {
		return nil, err
	}
	tr.setup(opRDFParse, t0)
	s := &stack{}
	var g graph.Graph
	switch w.name {
	case "lubm_disk":
		st, err := disk.Create(filepath.Join(dir, "store"), disk.Options{CacheSize: diskPool(estimatePages(len(triples)))})
		if err != nil {
			return nil, err
		}
		s.disk = st
		t0 = time.Now()
		ids := core.EncodeTriples(st.Dictionary(), triples, workers)
		tr.setup(opEncode, t0)
		t0 = time.Now()
		if err := st.BulkLoadParallel(ids, workers); err != nil {
			st.Close()
			return nil, err
		}
		if err := st.Flush(); err != nil {
			st.Close()
			return nil, err
		}
		tr.setup(opDiskBulkLoad, t0)
		g = graph.Disk(st)
	case "lubm_write":
		// hexserver -shards 2 -wal: one encode against the shared
		// dictionary, a per-shard parallel build, and per-shard delta
		// overlays with their own logs, assembled by shard.New (what
		// shard.OpenCluster does), so each shard's overlay can be
		// wrapped for per-shard spans.
		const shards = 2
		dict := dictionary.New()
		t0 = time.Now()
		load := core.EncodeTriples(dict, triples, workers)
		tr.setup(opEncode, t0)
		parts := make([][][3]ID, shards)
		for _, t := range load {
			i := shard.ShardOf(t[0], shards)
			parts[i] = append(parts[i], t)
		}
		var members []graph.Graph
		for i := 0; i < shards; i++ {
			t0 = time.Now()
			b := core.NewBuilder(dict)
			b.SetCompression(true)
			b.AddAll(parts[i])
			st := b.BuildParallel(workers)
			tr.setup(opCoreBuild, t0)
			s.mains = append(s.mains, st)
			walPath := shard.ShardWALPath(filepath.Join(dir, "wal"), i)
			t0 = time.Now()
			ov, err := delta.Open(graph.Memory(st), delta.Options{
				WALPath: walPath, SnapshotPath: walPath + ".snapshot",
				CompactThreshold: writeCompactThreshold, Workers: workers,
			})
			if err != nil {
				s.closeStores()
				return nil, err
			}
			tr.setup(opDeltaOpen, t0)
			s.overlays = append(s.overlays, ov)
			m, err := tr.wrap(ov, spanShard, nil)
			if err != nil {
				s.closeStores()
				return nil, err
			}
			members = append(members, m)
		}
		t0 = time.Now()
		cl, err := shard.New(dict, members)
		if err != nil {
			s.closeStores()
			return nil, err
		}
		tr.setup(opShardNew, t0)
		g = cl
	default:
		b := core.NewBuilder(nil)
		t0 = time.Now()
		b.AddAll(core.EncodeTriples(b.Dictionary(), triples, workers))
		tr.setup(opEncode, t0)
		t0 = time.Now()
		st := b.BuildParallel(workers)
		tr.setup(opCoreBuild, t0)
		s.mains = []*core.Store{st}
		g = graph.Memory(st)
	}
	top, err := tr.wrap(g, spanStore, nil)
	if err != nil {
		s.closeStores()
		return nil, err
	}
	srv := server.NewGraph(top)
	resultCache := int64(server.DefaultResultCacheBytes)
	if w.name == "barton_paper" || w.name == "lubm_disk" {
		resultCache = 0
	}
	// hexserver's defaults, as its main sets them.
	srv.SetPlanCacheSize(sparql.DefaultPlanCacheSize)
	srv.SetResultCacheBytes(resultCache)
	srv.SetMaxInflight(1024)
	srv.SetRequestTimeout(30 * time.Second)
	srv.SetGovernor(govern.Config{MaxConcurrent: 64, MaxQueue: 64, QueueTimeout: 5 * time.Second, SlowQuery: time.Second})
	srv.SetQueryLimits(0, 0)
	if cl, ok := g.(*shard.Cluster); ok {
		srv.SetDegradedCheck(cl.Degraded)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeStores()
		return nil, err
	}
	s.addr, s.served = l.Addr().String(), make(chan error, 1)
	s.http = &http.Server{Handler: tr.wrapHandler(srv.Handler())}
	go func() { s.served <- s.http.Serve(l) }()
	return s, nil
}

// readNTriples parses an N-Triples file as hexserver's -load does.
func readNTriples(path string) ([]rdf.Triple, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return rdf.NewReader(f).ReadAll()
}

// closeStores closes the stores without checkpointing work worth
// keeping; the benchmark discards them.
func (s *stack) closeStores() {
	for _, ov := range s.overlays {
		_ = ov.Close() // discarded state
	}
	if s.disk != nil {
		_ = s.disk.Close() // discarded state
	}
}

// stop shuts the listener down, waits for the serve loop, and closes
// the stores.
func (s *stack) stop() error {
	err := s.http.Close()
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.closeStores()
	return err
}

// indexStats sums the memory mains' index footprint.
func (s *stack) indexStats() (bytesPerTriple, expansion float64) {
	var bytes, triples int64
	var weighted float64
	for _, st := range s.mains {
		is := st.IndexStats()
		bytes += is.Bytes
		n := int64(st.Len())
		triples += n
		weighted += st.Stats().ExpansionFactor() * float64(n)
	}
	return ratio(float64(bytes), float64(triples)), ratio(weighted, float64(triples))
}

// estimatePages sizes the disk store before it exists: the compressed
// LUBM store takes about 25 bytes per triple in 4 KiB pages. The
// provenance reports the real page count next to the pool.
func estimatePages(triples int) int { return triples*25/4096 + 1 }
