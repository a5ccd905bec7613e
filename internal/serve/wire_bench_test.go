package serve

// Rungs L0, L1 and L3 of the serving ledger (DESIGN.md §4j), over
// servebench's session stream — the planted n=300, m=4000, opt=8 instance
// in random order at seed 1 (72,156 edges), cut into 1024-edge frames.
//
// L0 (BenchmarkWireEdgesKernel) is the kk kernel alone: New at seed 1,
// ProcessBatch per frame and Finish, on one goroutine, as a served
// session's algorithm sees the stream. BenchmarkWireEdgesKernelAlg1 is the
// same for Algorithm 1 with DefaultParams. Both report ns/edge and the
// state_words of one untimed run.
//
// L1 is the SCWIRE1 edge codec on its own. Encode is the client's work per
// frame: writeEdges sealing the frame (varints and CRC) into a pooled,
// coalescing frame.IO. Decode is the server's: a pooled frame.IO read (CRC
// check) plus parseEdgesInto into a MaxBatch edge buffer. Both report
// ns/edge and allocate nothing per op. EncodeWide and DecodeWide are the
// same on random set IDs wide enough for 3-byte varints. DecodeKernel is
// Decode without its frame reads: parseEdgesInto alone over the frame
// bodies, read and CRC-checked once before the timer starts.
//
// L3 (BenchmarkWireEdgesPipe) is one whole kk session over net.Pipe: a
// Client drives Server.handle through hello, the frames and finish, so the
// rung holds frame I/O, codec, lifecycle and kernel but no TCP. L4 − L3 is
// what loopback TCP costs.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"

	"streamcover/internal/core"
	"streamcover/internal/frame"
	"streamcover/internal/kk"
	"streamcover/internal/setcover"
	"streamcover/internal/space"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
	"streamcover/internal/xrand"
)

const (
	benchN, benchM, benchOpt = 300, 4000, 8
	benchFrameEdges          = 1024
)

// benchWireStream is servebench's stream at seed 1.
func benchWireStream() []stream.Edge {
	const seed = 1
	inst := workload.Planted(xrand.New(seed), benchN, benchM, benchOpt, 0).Inst
	return stream.Arrange(inst, stream.Random, xrand.New(seed^0x5eed0f0dde55))
}

// benchConn reads from its Reader and discards every write.
type benchConn struct {
	io.Reader
	io.Writer
}

// sendStream writes edges through f as benchFrameEdges-edge edges frames,
// flushes, and returns how many frames it sent.
func sendStream(tb testing.TB, f *frame.IO, edges []stream.Edge) int {
	frames := 0
	for lo := 0; lo < len(edges); lo += benchFrameEdges {
		if err := writeEdges(f, edges[lo:min(lo+benchFrameEdges, len(edges))]); err != nil {
			tb.Fatal(err)
		}
		frames++
	}
	if err := f.Flush(); err != nil {
		tb.Fatal(err)
	}
	return frames
}

// reportNsPerEdge stops the timer, so the metric's own allocation is not
// counted, and reports the time per edge.
func reportNsPerEdge(b *testing.B, edges int) {
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/edge")
}

func BenchmarkWireEdgesKernel(b *testing.B) {
	benchKernel(b, func(int) kernel { return kk.New(benchN, benchM, xrand.New(1)) })
}

func BenchmarkWireEdgesKernelAlg1(b *testing.B) {
	benchKernel(b, func(streamLen int) kernel {
		return core.New(benchN, benchM, streamLen, core.DefaultParams(benchN, benchM), xrand.New(1))
	})
}

// kernel is what an L0 rung times: an algorithm fed through its batched
// path that reports its space.
type kernel interface {
	stream.Algorithm
	stream.BatchProcessor
	space.Reporter
}

// benchKernel times L0 for the algorithm newAlg builds for a stream of the
// given length: construction, ProcessBatch per benchFrameEdges-edge frame
// and Finish.
func benchKernel(b *testing.B, newAlg func(streamLen int) kernel) {
	edges := benchWireStream()
	run := func() kernel {
		alg := newAlg(len(edges))
		for lo := 0; lo < len(edges); lo += benchFrameEdges {
			alg.ProcessBatch(edges[lo:min(lo+benchFrameEdges, len(edges))])
		}
		alg.Finish()
		return alg
	}
	words := run().Space().State // untimed; also warms the scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	reportNsPerEdge(b, len(edges))
	b.ReportMetric(float64(words), "state_words")
}

func BenchmarkWireEdgesEncode(b *testing.B) {
	benchEncode(b, benchWireStream())
}

// BenchmarkWireEdgesEncodeWide is the L1 encode rung on benchWideStream:
// with set IDs of 2^14 or more in most blocks of four edges, the block
// encoder keeps stopping and hands most edges to the scalar one.
func BenchmarkWireEdgesEncodeWide(b *testing.B) {
	for _, m := range benchWideMs {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			benchEncode(b, benchWideStream(m))
		})
	}
}

// benchEncode times the client's side of L1 on edges: writeEdges sealing
// benchFrameEdges-edge frames (varints and CRC) into a pooled, coalescing
// frame.IO whose writes are discarded.
func benchEncode(b *testing.B, edges []stream.Edge) {
	f := clientFrames.Get(benchConn{Writer: io.Discard})
	defer clientFrames.Put(f)
	sendStream(b, f, edges) // warm the write buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendStream(b, f, edges)
	}
	reportNsPerEdge(b, len(edges))
}

func BenchmarkWireEdgesDecode(b *testing.B) {
	benchDecode(b, benchWireStream(), benchN, benchM)
}

// BenchmarkWireEdgesDecodeWide is the L1 decode rung on benchWideStream.
// The block decoder keeps stopping at 3-byte varints and hands most edges
// to the scalar kernel.
func BenchmarkWireEdgesDecodeWide(b *testing.B) {
	for _, m := range benchWideMs {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			benchDecode(b, benchWideStream(m), benchN, m)
		})
	}
}

// benchWideMs are the set counts of the wide rungs: at m=40000 three sets
// in five need 3-byte varints, at m=2^20 nearly all do.
var benchWideMs = []int{40000, 1 << 20}

// benchWideStream is as many edges as servebench's stream, with sets drawn
// uniformly below m and elements below n=300, at a fixed seed.
func benchWideStream(m int) []stream.Edge {
	rng := xrand.New(1)
	edges := make([]stream.Edge, len(benchWireStream()))
	for i := range edges {
		edges[i] = stream.Edge{Set: setcover.SetID(rng.IntN(m)), Elem: setcover.Element(rng.IntN(benchN))}
	}
	return edges
}

// BenchmarkWireEdgesDecodeKernel is the L1 decode rung without the frame
// reads: parseEdgesInto alone over the bodies of servebench's frames.
func BenchmarkWireEdgesDecodeKernel(b *testing.B) {
	edges := benchWireStream()
	var wire bytes.Buffer
	f := newFrameIO(&wire)
	frames := sendStream(b, f, edges)
	bodies := make([][]byte, frames)
	for j := range bodies {
		payload, err := f.Read()
		if err != nil {
			b.Fatal(err)
		}
		bodies[j] = bytes.Clone(payload[1:])
	}
	dst := make([]stream.Edge, MaxBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			if _, err := parseEdgesInto(body, dst, benchN, benchM); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportNsPerEdge(b, len(edges))
}

// benchDecode times the server's side of L1 on edges sent in
// benchFrameEdges-edge frames: a pooled frame.IO read (CRC check) plus
// parseEdgesInto into a MaxBatch edge buffer, per frame.
func benchDecode(b *testing.B, edges []stream.Edge, n, m int) {
	var wire bytes.Buffer
	frames := sendStream(b, newFrameIO(&wire), edges)

	r := bytes.NewReader(wire.Bytes())
	f := serverFrames.Get(benchConn{Reader: r, Writer: io.Discard})
	defer serverFrames.Put(f)
	dst := make([]stream.Edge, MaxBatch)
	decode := func() {
		r.Reset(wire.Bytes())
		for j := 0; j < frames; j++ {
			payload, err := f.Read()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := parseEdgesInto(payload[1:], dst, n, m); err != nil {
				b.Fatal(err)
			}
		}
	}
	decode() // warm the read window
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
	reportNsPerEdge(b, len(edges))
}

func BenchmarkWireEdgesPipe(b *testing.B) {
	edges := benchWireStream()
	cfg := Config{Algo: "kk", N: benchN, M: benchM, StreamLen: len(edges), Seed: 1}
	want := localReference(b, cfg, edges).Fingerprint()
	srv, err := NewServer(ServerConfig{Store: NewMemStore()})
	if err != nil {
		b.Fatal(err)
	}
	fd := Feeder{Edges: edges, Batch: benchFrameEdges}
	session := func(i int) {
		cc, sc := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handle(sc)
		}()
		c := newClient(cc)
		defer func() {
			c.Close()
			<-done
		}()
		if _, err := c.Hello(fmt.Sprintf("pipe-%d", i), cfg); err != nil {
			b.Fatal(err)
		}
		res, err := fd.Run(c)
		if err != nil {
			b.Fatal(err)
		}
		if fp := res.Fingerprint(); fp != want {
			b.Fatalf("session fingerprint %016x, want %016x", fp, want)
		}
	}
	session(-1) // warm the frame pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session(i)
	}
	reportNsPerEdge(b, len(edges))
}
