package streamcover

// Benchmarks for the on-disk ingestion path (DESIGN.md §4e). The "seed"
// sub-benchmark replays a file exactly the way the pre-pipelining File did —
// an eager whole-file CRC-32 scan at open, then a buffered per-edge varint
// decode — so BenchmarkFileReplay/seed vs /file measures what the
// single-scan open and the windowed batch decode on the shared edge decoder
// buy on the standard planted workload.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"streamcover/internal/stream"
)

// writeBenchStream encodes the standard perf workload (n=900, m=18000,
// opt=15, random order) as a stream file and returns its path, edge count
// and byte size.
func writeBenchStream(b *testing.B) (string, int, int64) {
	b.Helper()
	const n, m, opt = 900, 18000, 15
	w := PlantedWorkload(NewRand(1), n, m, opt, 0)
	edges := Arrange(w.Inst, RandomOrder, NewRand(7))
	var buf bytes.Buffer
	if err := EncodeStream(&buf, StreamHeader{N: n, M: m, E: len(edges)}, edges); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.scstrm")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	return path, len(edges), int64(buf.Len())
}

// seedReplay reproduces the seed File's replay cost model: pass 1 reads the
// whole file through a CRC-32 to verify the trailer (the old eager open),
// pass 2 re-reads it decoding one edge at a time through a bufio.Reader,
// assembling driver-sized batches for the consumer.
func seedReplay(path string, numEdges int, proc func([]Edge)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	h := crc32.NewIEEE()
	if _, err := io.CopyN(h, bufio.NewReaderSize(f, 1<<16), st.Size()-4); err != nil {
		return err
	}
	var tr [4]byte
	if _, err := f.ReadAt(tr[:], st.Size()-4); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(tr[:]) != h.Sum32() {
		return fmt.Errorf("checksum mismatch")
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	if _, err := br.Discard(8); err != nil { // magic
		return err
	}
	for i := 0; i < 3; i++ { // header uvarints
		if _, err := binary.ReadUvarint(br); err != nil {
			return err
		}
	}
	batch := make([]Edge, 0, stream.BatchSize)
	for i := 0; i < numEdges; i++ {
		s, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		e, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		batch = append(batch, Edge{Set: SetID(s), Elem: Element(e)})
		if len(batch) == stream.BatchSize {
			proc(batch)
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		proc(batch)
	}
	return nil
}

// BenchmarkFileReplay measures one full on-disk replay pass into a fresh
// KK-algorithm through two ingestion paths: the seed eager-verify +
// per-edge decode, and the single-scan windowed File. Each op builds its
// own NewKK, as BenchmarkEndToEndKK does: one instance reused across ops
// saturates after the first and skips every later block, leaving decode
// alone on the clock.
func BenchmarkFileReplay(b *testing.B) {
	const n, m = 900, 18000
	path, numEdges, size := writeBenchStream(b)

	b.Run("seed", func(b *testing.B) {
		b.SetBytes(size)
		cpu0 := cpuSeconds()
		for i := 0; i < b.N; i++ {
			alg := NewKK(n, m, NewRand(3))
			if err := seedReplay(path, numEdges, func(batch []Edge) { alg.ProcessBatch(batch) }); err != nil {
				b.Fatal(err)
			}
		}
		reportThroughput(b, numEdges, cpu0)
	})

	b.Run("file", func(b *testing.B) {
		fs, err := OpenStreamFile(path)
		if err != nil {
			b.Fatal(err)
		}
		defer fs.Close()
		b.SetBytes(size)
		b.ResetTimer()
		cpu0 := cpuSeconds()
		for i := 0; i < b.N; i++ {
			alg := NewKK(n, m, NewRand(3))
			fs.Reset()
			for {
				batch := fs.NextBatch(stream.BatchSize)
				if len(batch) == 0 {
					break
				}
				alg.ProcessBatch(batch)
			}
			if err := fs.Err(); err != nil {
				b.Fatal(err)
			}
		}
		reportThroughput(b, numEdges, cpu0)
	})
}
