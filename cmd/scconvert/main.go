// Command scconvert converts between the OR-Library SCP text format (the
// classical set cover benchmark format, [5]/[11] in the paper's references)
// and this library's binary stream format, arranging the edge-arrival
// stream in a chosen order.
//
// Usage:
//
//	scconvert -in scp41.txt -order random -seed 1 -out scp41.scs
//	scconvert -reverse -in stream.scs -out instance.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"streamcover/internal/orlib"
	"streamcover/internal/stream"
	"streamcover/internal/xrand"
)

func main() {
	var (
		in        = flag.String("in", "", "input file (OR-Library text, or .scs with -reverse)")
		out       = flag.String("out", "out.scs", "output file")
		orderName = flag.String("order", "random", "arrival order for the stream")
		seed      = flag.Uint64("seed", 1, "random seed for order shuffling")
		reverse   = flag.Bool("reverse", false, "convert .scs stream back to OR-Library text")
	)
	flag.Parse()
	if *in == "" {
		fatalf("-in is required")
	}

	if *reverse {
		fs, err := stream.OpenFile(*in)
		if err != nil {
			fatalf("open stream: %v", err)
		}
		defer fs.Close()
		hdr := fs.Header()
		var edges []stream.Edge
		// The CRC is folded into the replay pass; a corrupt or truncated
		// file surfaces at its end, not at open.
		err = stream.Pass(fs, func(e stream.Edge) error {
			edges = append(edges, e)
			return nil
		})
		if err != nil {
			fatalf("read stream: %v", err)
		}
		inst, err := stream.InstanceFromEdges(hdr, edges)
		if err != nil {
			fatalf("rebuild: %v", err)
		}
		f, err := os.Create(*out)
		if err != nil {
			fatalf("create: %v", err)
		}
		defer f.Close()
		if err := orlib.Write(f, inst, nil); err != nil {
			fatalf("write: %v", err)
		}
		fmt.Printf("wrote %s: OR-Library text, %s\n", *out, inst.Stats())
		return
	}

	f, err := os.Open(*in)
	if err != nil {
		fatalf("open: %v", err)
	}
	parsed, err := orlib.Parse(f)
	f.Close()
	if err != nil {
		fatalf("%v", err)
	}
	order, err := stream.ParseOrder(*orderName)
	if err != nil {
		fatalf("%v", err)
	}
	edges := stream.Arrange(parsed.Inst, order, xrand.New(*seed))

	of, err := os.Create(*out)
	if err != nil {
		fatalf("create: %v", err)
	}
	defer of.Close()
	hdr := stream.Header{N: parsed.Inst.UniverseSize(), M: parsed.Inst.NumSets(), E: len(edges)}
	if err := stream.Encode(of, hdr, edges); err != nil {
		fatalf("encode: %v", err)
	}
	fmt.Printf("wrote %s: %s, order=%s\n", *out, parsed.Inst.Stats(), order)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scconvert: "+format+"\n", args...)
	os.Exit(1)
}
