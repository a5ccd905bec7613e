package stream

import (
	"runtime/debug"
	"slices"
	"syscall"
	"testing"
	"unsafe"
)

// TestDecodeBlockStaysInBounds runs decodeBlock on the seam cases with its
// window, and then its dst, ending where an unmapped page begins, so a
// load past len(win) or a store past len(dst) faults, and holds each run
// to one on ordinary slices. DecodeEdges cannot show such a load: it
// hands the kernel a window blockSlack bytes short of b, so the bytes past
// it are readable.
func TestDecodeBlockStaysInBounds(t *testing.T) {
	if !haveBlockKernel {
		t.Skip("no SSSE3: DecodeEdges runs the scalar kernel only")
	}
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 4*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(mem)
	for _, guard := range [][]byte{mem[page : 2*page], mem[3*page:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	winPage, dstPage := mem[:page], mem[2*page:3*page]
	for _, c := range seamCases() {
		win := c.data[:len(c.data)-blockSlack]
		guardedWin := winPage[page-len(win):]
		copy(guardedWin, win)
		for _, mn := range c.bounds {
			bm, bn := uint16(min(mn[0], 1<<14)), uint16(min(mn[1], 1<<14))
			bound := [8]uint16{bm, bn, bm, bn, bm, bn, bm, bn}
			for dstLen := max(0, c.before-4); dstLen <= c.before+4; dstLen++ {
				want := make([]Edge, dstLen)
				wk, wnext := decodeBlock(win, c.start, want, &bound, &blockIndex, &blockShuffle)
				got := unsafe.Slice((*Edge)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(dstPage)), page-8*dstLen)), dstLen)
				k, next := decodeBlock(guardedWin, c.start, got, &bound, &blockIndex, &blockShuffle)
				if k != wk || next != wnext || !slices.Equal(got[:k], want[:wk]) {
					t.Fatalf("m=%d n=%d start=%d len(win)=%d len(dst)=%d: guarded %d edges to %d, unguarded %d to %d",
						mn[0], mn[1], c.start, len(win), dstLen, k, next, wk, wnext)
				}
			}
		}
	}
}
