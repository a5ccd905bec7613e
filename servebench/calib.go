package main

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"time"

	"streamcover/internal/stream"
)

// The host's speed is measured on a reference pipeline that belongs to the
// benchmark and never changes: a writer encodes the workload's stream as
// uvarints into 64 KiB chunks on a loopback TCP connection, and a reader
// decodes them and folds every edge into a table. It does the same kinds
// of work as a served session (loopback TCP, varint decode, table updates)
// and none of the program's code, so it slows down exactly when the shared
// host does, and a change to the program does not move it.
//
// The untraced run samples it in short bursts between pieces of the closed
// loop. The host's speed is the pipeline's mean rate over the run divided
// by calRef, and every end-to-end rate is divided by it and every time
// multiplied by it: the figures are the ones a host of the reference speed
// would show.
const (
	// calRef is the reference speed, in edges per second: about what the
	// pipeline runs at on the 2-core host the bounds were set on.
	calRef = 52e6
	// calBurst is the length of one calibration burst.
	calBurst = 150 * time.Millisecond
)

// calibrate runs the reference pipeline for d on pairs writer-reader
// goroutine pairs and returns its throughput in edges per second.
func calibrate(edges []stream.Edge, pairs int, d time.Duration) float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	defer ln.Close()
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	start := time.Now()
	stop := start.Add(d)
	for p := 0; p < pairs; p++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return 0
		}
		s, err := ln.Accept()
		if err != nil {
			c.Close()
			return 0
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer c.Close()
			buf := make([]byte, 0, 64<<10)
			for i := 0; time.Now().Before(stop); {
				buf = buf[:0]
				for len(buf) <= cap(buf)-2*binary.MaxVarintLen64 {
					buf = binary.AppendUvarint(buf, uint64(edges[i].Set))
					buf = binary.AppendUvarint(buf, uint64(edges[i].Elem))
					i = (i + 1) % len(edges)
				}
				if _, err := c.Write(buf); err != nil {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			defer s.Close()
			table := make([]uint32, 1<<16)
			buf := make([]byte, 64<<10)
			n, carry := 0, 0
			for {
				k, err := s.Read(buf[carry:])
				k += carry
				pos := 0
				for pos+2*binary.MaxVarintLen64 <= k || (err != nil && pos < k) {
					a, na := binary.Uvarint(buf[pos:k])
					if na <= 0 {
						break
					}
					b, nb := binary.Uvarint(buf[pos+na : k])
					if nb <= 0 {
						break
					}
					pos += na + nb
					table[(a*0x9e3779b97f4a7c15^b)>>48] += uint32(b)
					n++
				}
				carry = copy(buf, buf[pos:k])
				if err != nil {
					if err != io.EOF {
						n = 0
					}
					break
				}
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	return float64(total) / time.Since(start).Seconds()
}
