package stream

import (
	"testing"

	"degentri/internal/graph"
)

// benchEdges builds a synthetic edge list of the given size.
func benchEdges(m int) []graph.Edge {
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: i % 1000, V: 1000 + i%997}
	}
	return edges
}

// benchStream returns the stream as the interface type, so the benchmark
// measures the dispatched call the estimators actually pay for.
func benchStream(edges []graph.Edge) Stream {
	return NewPassCounter(FromEdges(edges))
}

// BenchmarkStreamNextPass measures a full pass using one Next call per edge
// through the Stream interface (the pre-batching hot path).
func BenchmarkStreamNextPass(b *testing.B) {
	edges := benchEdges(1 << 17)
	s := benchStream(edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Reset(); err != nil {
			b.Fatal(err)
		}
		for {
			_, err := s.Next()
			if err == ErrEndOfPass {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkStreamNextBatchPass measures a full pass using NextBatch, the
// batched path every estimator now uses.
func BenchmarkStreamNextBatchPass(b *testing.B) {
	edges := benchEdges(1 << 17)
	s := benchStream(edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Reset(); err != nil {
			b.Fatal(err)
		}
		var sink int
		for {
			batch, err := s.NextBatch(nil)
			if err == ErrEndOfPass {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			sink += len(batch)
		}
		if sink != len(edges) {
			b.Fatal("short pass")
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkForEach measures the per-edge callback pass helper.
func BenchmarkForEach(b *testing.B) {
	edges := benchEdges(1 << 17)
	s := benchStream(edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum int
		if _, err := ForEach(s, func(e graph.Edge) error {
			sum += e.U
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkForEachBatch measures the batched pass helper.
func BenchmarkForEachBatch(b *testing.B) {
	edges := benchEdges(1 << 17)
	s := benchStream(edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum int
		if _, err := ForEachBatch(s, func(batch []graph.Edge) error {
			for _, e := range batch {
				sum += e.U
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkFileStreamPass measures the one full batched pass that parses a
// text edge list: the parser plus writing the .bex v2 copy that serves every
// later pass. Each iteration opens a fresh stream, since a second pass over
// the same stream would read the copy instead.
func BenchmarkFileStreamPass(b *testing.B) {
	edges := benchEdges(1 << 15)
	path := b.TempDir() + "/bench-edges.txt"
	g := graph.FromEdges(0, edges)
	if err := WriteGraphFile(path, g, "bench"); err != nil {
		b.Fatal(err)
	}
	m := g.NumEdges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := OpenFile(path)
		n, err := CountEdges(fs)
		fs.Close()
		if err != nil {
			b.Fatal(err)
		}
		if n != m {
			b.Fatalf("pass saw %d edges, want %d", n, m)
		}
	}
	b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkBexStreamPass measures a full batched pass over the binary .bex
// format — the fixed-width counterpart of BenchmarkFileStreamPass.
func BenchmarkBexStreamPass(b *testing.B) {
	edges := benchEdges(1 << 15)
	path := b.TempDir() + "/bench-edges.bex"
	if _, err := WriteBexFile(path, FromEdges(edges)); err != nil {
		b.Fatal(err)
	}
	bs, err := OpenBex(path)
	if err != nil {
		b.Fatal(err)
	}
	defer bs.Close()
	m := len(edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := CountEdges(bs)
		if err != nil {
			b.Fatal(err)
		}
		if n != m {
			b.Fatalf("pass saw %d edges, want %d", n, m)
		}
	}
	b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// benchmarkBex2Pass measures a full batched pass over the block-indexed v2
// format through the given reader — the delta-varint counterpart of
// BenchmarkBexStreamPass, for the head-to-head BENCH_5.json records.
func benchmarkBex2Pass(b *testing.B, open func(string) (FileBacked, error)) {
	b.Helper()
	edges := benchEdges(1 << 15)
	path := b.TempDir() + "/bench-edges.bex"
	if _, err := WriteBex2File(path, FromEdges(edges), 0); err != nil {
		b.Fatal(err)
	}
	bs, err := open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer bs.Close()
	m := len(edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := CountEdges(bs)
		if err != nil {
			b.Fatal(err)
		}
		if n != m {
			b.Fatalf("pass saw %d edges, want %d", n, m)
		}
	}
	b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkBex2StreamPass measures the buffered v2 reader.
func BenchmarkBex2StreamPass(b *testing.B) {
	benchmarkBex2Pass(b, func(p string) (FileBacked, error) { return OpenBex2(p) })
}

// BenchmarkBexdStreamPass measures the sharded multi-file reader (4 parts).
func BenchmarkBexdStreamPass(b *testing.B) {
	edges := benchEdges(1 << 15)
	dir := b.TempDir() + "/bench.bexd"
	if _, err := WriteBexd(dir, FromEdges(edges), 0, len(edges)/4); err != nil {
		b.Fatal(err)
	}
	ms, err := OpenBexd(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer ms.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := CountEdges(ms)
		if err != nil {
			b.Fatal(err)
		}
		if n != len(edges) {
			b.Fatalf("pass saw %d edges, want %d", n, len(edges))
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// benchmarkShardedPass measures the sharded engine over an in-memory stream
// at the given worker count (process cost: one add per edge).
func benchmarkShardedPass(b *testing.B, workers int) {
	b.Helper()
	edges := benchEdges(1 << 17)
	s := NewPassCounter(FromEdges(edges))
	var sums [NumShards]int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := ShardedForEachBatch(s, len(edges), workers,
			func(shard int, batch []graph.Edge) error {
				acc := 0
				for _, e := range batch {
					acc += e.U
				}
				sums[shard] += acc
				return nil
			},
			func(int) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkShardedPassWorkers1 measures the engine's sequential fallback.
func BenchmarkShardedPassWorkers1(b *testing.B) { benchmarkShardedPass(b, 1) }

// BenchmarkShardedPassWorkers4 measures the engine's parallel path.
func BenchmarkShardedPassWorkers4(b *testing.B) { benchmarkShardedPass(b, 4) }

// benchmarkBex2Decode measures a full pass over a v2 file written with
// 8K-edge blocks (the tentpole's reference block size) under one decode
// mode: scalar kernel, vectorized kernel, or cache hits (vectorized decode
// once, then every pass served from the decoded-block cache).
func benchmarkBex2Decode(b *testing.B, simd, cache bool) {
	b.Helper()
	edges := benchEdges(1 << 17) // 16 blocks of 8192 edges
	path := b.TempDir() + "/decode-bench.bex"
	if _, err := WriteBex2File(path, FromEdges(edges), 8192); err != nil {
		b.Fatal(err)
	}
	defer SetSIMDDecode(true)
	defer SetDecodeCacheBudget(DefaultDecodeCacheBytes)
	SetSIMDDecode(simd)
	SetDecodeCacheBudget(DefaultDecodeCacheBytes)
	bs, err := OpenAutoOpts(path, OpenOptions{DecodeCache: cache})
	if err != nil {
		b.Fatal(err)
	}
	defer bs.Close()
	m := len(edges)
	if cache { // warm pass: every later pass is all hits
		if n, err := CountEdges(bs); err != nil || n != m {
			b.Fatalf("warm pass: %d, %v", n, err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := CountEdges(bs)
		if err != nil {
			b.Fatal(err)
		}
		if n != m {
			b.Fatalf("pass saw %d edges, want %d", n, m)
		}
	}
	b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkBex2DecodeScalar8K is the scalar baseline at 8K-edge blocks.
func BenchmarkBex2DecodeScalar8K(b *testing.B) { benchmarkBex2Decode(b, false, false) }

// BenchmarkBex2DecodeSIMD8K is the vectorized kernel at 8K-edge blocks; the
// PR 10 acceptance bar is >= 2x the scalar baseline on amd64.
func BenchmarkBex2DecodeSIMD8K(b *testing.B) { benchmarkBex2Decode(b, SIMDDecodeEnabled(), false) }

// BenchmarkBex2DecodeCacheHit8K serves every block from the decoded-block
// cache — the 2nd..Nth logical pass of a hot estimator scan.
func BenchmarkBex2DecodeCacheHit8K(b *testing.B) { benchmarkBex2Decode(b, SIMDDecodeEnabled(), true) }
