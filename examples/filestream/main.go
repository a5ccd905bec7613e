// File streams: the larger-than-memory workflow. A stream is written to
// disk once, then replayed lazily — edges are decoded from the file as the
// algorithm consumes them, so the resident footprint is the algorithm's
// working state plus a read buffer, never the stream. A multi-pass
// algorithm (the [6]-style sample-and-prune baseline) replays the same file
// several times through Reset, which is exactly what "p passes over the
// stream" means operationally.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"streamcover"
)

func main() {
	rng := streamcover.NewRand(5)
	w := streamcover.PlantedWorkload(rng.Split(), 500, 5000, 10, 0)
	inst := w.Inst
	edges := streamcover.Arrange(inst, streamcover.RandomOrder, rng.Split())

	// Write the stream to disk.
	dir, err := os.MkdirTemp("", "streamcover")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "stream.scs")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	hdr := streamcover.StreamHeader{N: inst.UniverseSize(), M: inst.NumSets(), E: len(edges)}
	if err := streamcover.EncodeStream(f, hdr, edges); err != nil {
		log.Fatal(err)
	}
	f.Close()
	info, _ := os.Stat(path)
	fmt.Printf("stream file: %d edges, %d bytes on disk (checksum verified during the first pass)\n\n", len(edges), info.Size())

	// One-pass replay from disk: Algorithm 1 never sees more than one edge
	// at a time. The file is opened with a single scan and decoded a batch
	// at a time from a read window; the CRC-32 check is folded into this
	// replay and surfaces in Result.Err.
	fs, err := streamcover.OpenStreamFile(path)
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Close()
	alg := streamcover.NewRandomOrder(hdr.N, hdr.M, hdr.E, rng.Split())
	res := streamcover.Run(alg, fs)
	if res.Err != nil {
		log.Fatal(res.Err) // corrupt or truncated stream file
	}
	if err := res.Cover.Verify(inst); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alg1 (one pass from disk):   %3d sets, %v\n", res.Cover.Size(), res.Space)

	// Multi-pass replay: the file is Reset and re-read per round (later
	// passes skip the checksum work — the file verified clean once).
	fs.Reset()
	mp, err := streamcover.RunMultiPass(hdr.N, hdr.M, fs,
		streamcover.MultiPassOptions{SampleBudget: 100}, rng.Split())
	if err != nil {
		log.Fatal(err)
	}
	if err := mp.Cover.Verify(inst); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sample-and-prune (%d passes): %3d sets, sketch %v\n", mp.Passes, mp.Cover.Size(), mp.Space)
}
