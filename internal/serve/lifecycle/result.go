package lifecycle

import (
	"hash/fnv"

	"streamcover/internal/setcover"
	"streamcover/internal/space"
)

// Result is a finished session's complete observable output: everything the
// library's Result carries that crosses the wire.
type Result struct {
	// Edges is the number of edges the session processed.
	Edges int
	// Cover is the output cover with its certificate.
	Cover *setcover.Cover
	// Space is the algorithm's peak space report.
	Space space.Usage
}

// Fingerprint folds the session's complete observable output into one
// FNV-64a hash — chosen sets, full certificate, edge count and both space
// meters — using exactly the scheme of the repository's golden regression
// fixtures. Two runs with equal fingerprints produced byte-identical
// output, which is how the serve tests and the golden serve tests compare
// a resumed session against an uninterrupted one.
func (r Result) Fingerprint() uint64 {
	h := fnv.New64a()
	write := func(v int64) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	write(int64(len(r.Cover.Sets)))
	for _, s := range r.Cover.Sets {
		write(int64(s))
	}
	write(int64(len(r.Cover.Certificate)))
	for _, s := range r.Cover.Certificate {
		write(int64(s))
	}
	write(int64(r.Edges))
	write(r.Space.State)
	write(r.Space.Aux)
	return h.Sum64()
}
