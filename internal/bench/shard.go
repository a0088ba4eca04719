package bench

import (
	"context"
	"fmt"
	"sync"

	"hexastore/internal/core"
	"hexastore/internal/dictionary"
	"hexastore/internal/graph"
	"hexastore/internal/lubm"
	"hexastore/internal/rdf"
	"hexastore/internal/shard"
	"hexastore/internal/sparql"
)

// ShardFigureIDs names the sharded serving-tier figures RunShard
// produces.
var ShardFigureIDs = []string{"shard01"}

// ShardQueries builds the shard01 read workload over a dataset: the
// chain join and a predicate scan (both scatter across shards), plus
// bound-subject lookups on subjects sampled evenly from the data (each
// routed to exactly one shard). The mix exercises both sides of the
// router's placement rule.
func ShardQueries(data []rdf.Triple) ([]*sparql.Query, error) {
	srcs := []string{
		`SELECT ?student ?course WHERE {
			?student <lubm:advisor> ?prof .
			?prof <lubm:teacherOf> ?course }`,
		`SELECT ?s ?o WHERE { ?s <lubm:takesCourse> ?o }`,
	}
	for i := 0; i < 8 && len(data) > 0; i++ {
		s := data[i*len(data)/8].Subject
		srcs = append(srcs, fmt.Sprintf(`SELECT ?p ?o WHERE { <%s> ?p ?o }`, s.Value))
	}
	queries := make([]*sparql.Query, len(srcs))
	for i, src := range srcs {
		q, err := sparql.Parse(src)
		if err != nil {
			return nil, err
		}
		queries[i] = q
	}
	return queries, nil
}

// ShardReadWorkload drives the shard01 read workload against one
// backend: 4 reader goroutines each evaluate every query 5 times, with
// intra-query join parallelism pinned to 1 worker — so any speedup over
// the single-store series comes from the cluster's scatter-gather
// fan-out, not from the parallel join evaluator. The same driver backs
// the hexbench shard01 figure and BenchmarkShard01.
func ShardReadWorkload(g graph.Graph, queries []*sparql.Query) error {
	const readers, rounds = 4, 5
	pl := sparql.NewPlanner(g)
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, q := range queries {
					if _, err := pl.EvalOpts(context.Background(), q, sparql.EvalOptions{Workers: 1}); err != nil {
						errCh <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunShard times the shard01 figure: the fixed concurrent-reader
// workload of ShardQueries against the scatter-gather serving tier at
// 1, 2 and 4 subject-hash shards, over growing LUBM prefixes. Each
// point bulk-loads a fresh cluster through the partitioned parallel
// build pipeline. On a single-core host the series mostly overlap (the
// scatter has no spare cores to fan out onto) — the recorded
// go_max_procs in the JSON snapshot says which regime a trajectory
// point was measured in.
func RunShard(cfg Config, progress func(string)) ([]*Figure, error) {
	cfg = cfg.withDefaults()
	data := lubm.Config{Universities: cfg.LUBMUniversities, Seed: cfg.Seed}.GenerateAll()

	fig := &Figure{
		ID:     "shard01",
		Title:  "Scatter-gather read throughput: 1 vs 2 vs 4 subject-hash shards",
		YLabel: "seconds",
	}
	shardCounts := []int{1, 2, 4}
	for _, n := range prefixSizes(len(data), cfg.Steps) {
		if progress != nil {
			progress(fmt.Sprintf("shard: prefix of %d triples", n))
		}
		queries, err := ShardQueries(data[:n])
		if err != nil {
			return nil, err
		}
		for si, nshards := range shardCounts {
			// A fresh cluster (own dictionary) per point: the bulk load
			// partitions by subject hash and builds shards in parallel.
			dict := dictionary.New()
			cl, err := shard.OpenCluster(shard.Config{
				Shards:  nshards,
				Dict:    dict,
				Load:    core.EncodeTriples(dict, data[:n], cfg.Workers),
				Workers: cfg.Workers,
			})
			if err != nil {
				return nil, fmt.Errorf("bench: shard01 shards=%d: %w", nshards, err)
			}
			var runErr error
			p := measureBest(cfg.Repeats, func() {
				if err := ShardReadWorkload(cl, queries); err != nil && runErr == nil {
					runErr = err
				}
			})
			if err := cl.Close(); err != nil && runErr == nil {
				runErr = err
			}
			if runErr != nil {
				return nil, fmt.Errorf("bench: shard01 shards=%d: %w", nshards, runErr)
			}
			p.Triples = n
			if len(fig.Series) <= si {
				fig.Series = append(fig.Series, Series{Name: fmt.Sprintf("shards=%d", nshards)})
			}
			fig.Series[si].Points = append(fig.Series[si].Points, p)
		}
	}
	return []*Figure{fig}, nil
}
