package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"streamcover/internal/obs"
	"streamcover/internal/snap"
)

// A checkpoint wraps an algorithm snapshot together with the stream position
// it was taken at:
//
//	"SCCKPT1\n" | uvarint pos | SCSTATE1 snapshot | [trace section] | CRC-32 (IEEE, LE)
//
// The trailing checksum covers everything before it, including the embedded
// snapshot (whose own internal checksum is thus double-covered), following
// the same end-to-end integrity discipline as the SCTRACE1 and SCSTATE1
// formats: a checkpoint either loads completely or fails loudly.
//
// The trace section is optional: "TI" followed by the 16 raw bytes of the
// session's obs.TraceID. It stamps a session identity into the envelope so
// a resumed session — on this server or, after cross-shard adoption, any
// other — reports the trace ID minted when the session first opened.
// Readers accept envelopes with or without the section (SCSTATE1 snapshots
// are self-delimiting, so the presence of the 18 extra bytes before the
// trailer is unambiguous); writers only add it when the trace is non-zero,
// which keeps every pre-trace checkpoint byte-identical.
const (
	ckptMagic      = "SCCKPT1\n"
	ckptTraceMark  = "TI"
	ckptTraceExtra = len(ckptTraceMark) + obs.TraceIDLen // trace section length
)

// CheckpointPolicy configures periodic snapshots during a run.
//
// A zero policy disables checkpointing. With Every > 0, a snapshot is taken
// each time the stream position reaches a multiple of Every. Positions are
// absolute, so a run resumed from a checkpoint lays its subsequent
// checkpoints at exactly the same stream offsets as an uninterrupted run.
type CheckpointPolicy struct {
	// Every is the checkpoint interval in edges; <= 0 disables checkpointing.
	Every int
	// Path, when non-empty, is the file each checkpoint is written to. The
	// write is atomic (temp file + rename), so a run killed mid-checkpoint
	// leaves the previous checkpoint intact.
	Path string
	// Sink, when non-nil, receives each checkpoint instead of Path. The byte
	// slice is only valid for the duration of the call.
	Sink func(pos int, checkpoint []byte) error
	// Trace, when non-zero, stamps the session's trace ID into every
	// envelope this policy writes, so a resume reports the original
	// identity.
	Trace obs.TraceID
}

func (p CheckpointPolicy) enabled() bool { return p.Every > 0 }

// RunCheckpointed is Run with periodic checkpointing per p. With a zero
// policy it is exactly Run.
func RunCheckpointed(alg Algorithm, s Stream, p CheckpointPolicy) (Result, error) {
	return runCheckpointed(alg, s, p, 0)
}

// RunCheckpointedFrom resumes a run from stream position `from`: alg must
// already hold the state of a checkpoint taken at `from` (see
// ReadCheckpoint), and the first `from` edges of s are skipped rather than
// dispatched. The result — cover, certificate, reported space — is identical
// to an uninterrupted run over the same stream.
func RunCheckpointedFrom(alg Algorithm, s Stream, p CheckpointPolicy, from int) (Result, error) {
	if from < 0 {
		return Result{}, fmt.Errorf("stream: negative resume position %d", from)
	}
	return runCheckpointed(alg, s, p, from)
}

func runCheckpointed(alg Algorithm, s Stream, p CheckpointPolicy, from int) (Result, error) {
	ro := obs.RunObsFor(obs.AlgoOf(alg))
	var start time.Time
	if ro != nil {
		start = time.Now()
	}
	sample, err := checkpointSampler(alg, p, ro)
	if err != nil {
		return Result{}, err
	}
	n, err := driveStream(alg, s, ro, from, p.Every, 0, sample)
	if err != nil {
		return Result{}, err
	}
	return finishRun(alg, ro, n, start), nil
}

// DrivePartial feeds at most limit edges of s to alg — checkpointing per p —
// and returns the stream position reached, WITHOUT finishing the algorithm.
// It simulates a run killed mid-stream: the last durable checkpoint (at the
// largest multiple of p.Every not exceeding the returned position) is what a
// resume starts from; no checkpoint is taken at the stopping point itself.
func DrivePartial(alg Algorithm, s Stream, p CheckpointPolicy, limit int) (int, error) {
	if limit <= 0 {
		return 0, fmt.Errorf("stream: DrivePartial needs limit > 0, got %d", limit)
	}
	sample, err := checkpointSampler(alg, p, nil)
	if err != nil {
		return 0, err
	}
	return driveStream(alg, s, nil, 0, p.Every, limit, sample)
}

// checkpointSampler builds the driveStream sample callback for policy p, or
// nil when checkpointing is disabled. The serialization buffer is reused
// across checkpoints.
func checkpointSampler(alg Algorithm, p CheckpointPolicy, ro *obs.RunObs) (func(pos int) error, error) {
	if !p.enabled() {
		return nil, nil
	}
	if p.Path == "" && p.Sink == nil {
		return nil, errors.New("stream: checkpoint policy has an interval but no destination (Path or Sink)")
	}
	if _, err := snapshotterOf(alg); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	return func(pos int) error {
		t0 := time.Now()
		buf.Reset()
		if err := WriteCheckpointTraced(&buf, pos, p.Trace, alg); err != nil {
			return fmt.Errorf("stream: checkpoint at edge %d: %w", pos, err)
		}
		if p.Sink != nil {
			if err := p.Sink(pos, buf.Bytes()); err != nil {
				return fmt.Errorf("stream: checkpoint sink at edge %d: %w", pos, err)
			}
		} else if err := AtomicWriteFile(p.Path, buf.Bytes()); err != nil {
			return fmt.Errorf("stream: checkpoint write at edge %d: %w", pos, err)
		}
		ro.Checkpoint(int64(buf.Len()), time.Since(t0).Nanoseconds())
		return nil
	}, nil
}

// WriteCheckpoint writes a checkpoint of alg, taken at stream position pos,
// to w in the SCCKPT1 format, with no trace section.
func WriteCheckpoint(w io.Writer, pos int, alg Algorithm) error {
	return WriteCheckpointTraced(w, pos, obs.TraceID{}, alg)
}

// WriteCheckpointTraced is WriteCheckpoint with the session's trace ID
// stamped into the envelope (a zero trace writes the classic untraced
// envelope, byte-identical to pre-trace checkpoints).
func WriteCheckpointTraced(w io.Writer, pos int, trace obs.TraceID, alg Algorithm) error {
	sn, err := snapshotterOf(alg)
	if err != nil {
		return err
	}
	if pos < 0 {
		return fmt.Errorf("stream: negative checkpoint position %d", pos)
	}
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := io.WriteString(mw, ckptMagic); err != nil {
		return err
	}
	var vb [binary.MaxVarintLen64]byte
	if _, err := mw.Write(vb[:binary.PutUvarint(vb[:], uint64(pos))]); err != nil {
		return err
	}
	// The snapshot streams through mw so the outer checksum covers it.
	if err := sn.Snapshot(mw); err != nil {
		return err
	}
	if !trace.IsZero() {
		if _, err := io.WriteString(mw, ckptTraceMark); err != nil {
			return err
		}
		if _, err := mw.Write(trace[:]); err != nil {
			return err
		}
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	_, err = w.Write(trailer[:])
	return err
}

// ReadCheckpoint restores a checkpoint from r into alg — which must be a
// freshly constructed instance with the same shape parameters as the one
// that was checkpointed — and returns the stream position to resume from.
// Any trace section is verified and discarded; use ReadCheckpointTraced to
// recover it.
func ReadCheckpoint(r io.Reader, alg Algorithm) (int, error) {
	pos, _, err := ReadCheckpointTraced(r, alg)
	return pos, err
}

// ReadCheckpointTraced is ReadCheckpoint returning the envelope's stamped
// trace ID as well (the zero ID for untraced envelopes). It consumes r to
// EOF: the trace section is optional, so the envelope's end is needed to
// tell the section from the checksum trailer.
func ReadCheckpointTraced(r io.Reader, alg Algorithm) (int, obs.TraceID, error) {
	var trace obs.TraceID
	sn, err := snapshotterOf(alg)
	if err != nil {
		return 0, trace, err
	}
	crc := crc32.NewIEEE()
	tee := io.TeeReader(r, crc)
	var m [len(ckptMagic)]byte
	if _, err := io.ReadFull(tee, m[:]); err != nil {
		return 0, trace, fmt.Errorf("%w: checkpoint magic: %v", snap.ErrTruncated, err)
	}
	if string(m[:]) != ckptMagic {
		return 0, trace, fmt.Errorf("%w: bad checkpoint magic %q", snap.ErrCorrupt, m[:])
	}
	pos64, err := binary.ReadUvarint(oneByteReader{tee})
	if err != nil {
		return 0, trace, fmt.Errorf("%w: checkpoint position: %v", snap.ErrCorrupt, err)
	}
	if pos64 > 1<<62 {
		return 0, trace, fmt.Errorf("%w: checkpoint position %d overflows", snap.ErrCorrupt, pos64)
	}
	// Restore streams through tee, so the outer checksum covers the embedded
	// snapshot (including its inner trailer).
	if err := sn.Restore(tee); err != nil {
		return 0, trace, err
	}
	// Everything after the snapshot is the optional trace section plus the
	// 4-byte trailer; read it raw (not through tee) and fold the non-trailer
	// prefix into the checksum by hand. An envelope tail can only be 4
	// (untraced) or 4+ckptTraceExtra (traced) bytes.
	tail, err := io.ReadAll(io.LimitReader(r, int64(ckptTraceExtra)+4+1))
	if err != nil {
		return 0, trace, fmt.Errorf("%w: checkpoint tail: %v", snap.ErrTruncated, err)
	}
	switch len(tail) {
	case 4:
	case ckptTraceExtra + 4:
		if string(tail[:len(ckptTraceMark)]) != ckptTraceMark {
			return 0, trace, fmt.Errorf("%w: bad trace section mark %q", snap.ErrCorrupt, tail[:len(ckptTraceMark)])
		}
		copy(trace[:], tail[len(ckptTraceMark):ckptTraceExtra])
	default:
		return 0, trace, fmt.Errorf("%w: checkpoint tail of %d bytes (want 4 or %d)", snap.ErrCorrupt, len(tail), ckptTraceExtra+4)
	}
	body, trailer := tail[:len(tail)-4], tail[len(tail)-4:]
	crc.Write(body)
	if crc.Sum32() != binary.LittleEndian.Uint32(trailer) {
		return 0, obs.TraceID{}, fmt.Errorf("%w: checkpoint checksum mismatch", snap.ErrCorrupt)
	}
	return int(pos64), trace, nil
}

// WriteCheckpointFile writes a checkpoint of alg at position pos to path
// atomically (temp file in the same directory, fsync, rename).
func WriteCheckpointFile(path string, pos int, alg Algorithm) error {
	return WriteCheckpointFileTraced(path, pos, obs.TraceID{}, alg)
}

// WriteCheckpointFileTraced is WriteCheckpointFile with a trace section.
func WriteCheckpointFileTraced(path string, pos int, trace obs.TraceID, alg Algorithm) error {
	var buf bytes.Buffer
	if err := WriteCheckpointTraced(&buf, pos, trace, alg); err != nil {
		return err
	}
	return AtomicWriteFile(path, buf.Bytes())
}

// ReadCheckpointFile restores a checkpoint file into alg and returns the
// resume position.
func ReadCheckpointFile(path string, alg Algorithm) (int, error) {
	pos, _, err := ReadCheckpointFileTraced(path, alg)
	return pos, err
}

// ReadCheckpointFileTraced is ReadCheckpointFile returning the stamped trace
// ID as well.
func ReadCheckpointFileTraced(path string, alg Algorithm) (int, obs.TraceID, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, obs.TraceID{}, err
	}
	defer f.Close()
	return ReadCheckpointTraced(f, alg)
}

// CheckpointInfo describes a checkpoint without restoring it.
type CheckpointInfo struct {
	// Pos is the stream position the checkpoint was taken at.
	Pos int
	// Algo is the embedded snapshot's algorithm tag (e.g. "kk", "ensemble").
	Algo string
	// Version is the embedded snapshot's format version.
	Version uint64
	// Bytes is the size of the embedded snapshot in bytes.
	Bytes int
	// Trace is the stamped session trace ID, or the zero ID for untraced
	// envelopes.
	Trace obs.TraceID
}

// InspectCheckpoint reads a checkpoint's envelope — verifying the outer
// checksum — and reports what is inside without needing an algorithm
// instance to restore into. Inspection tooling (sctrace) uses it.
func InspectCheckpoint(r io.Reader) (CheckpointInfo, error) {
	var info CheckpointInfo
	crc := crc32.NewIEEE()
	tee := io.TeeReader(r, crc)
	var m [len(ckptMagic)]byte
	if _, err := io.ReadFull(tee, m[:]); err != nil {
		return info, fmt.Errorf("%w: checkpoint magic: %v", snap.ErrTruncated, err)
	}
	if string(m[:]) != ckptMagic {
		return info, fmt.Errorf("%w: bad checkpoint magic %q", snap.ErrCorrupt, m[:])
	}
	pos64, err := binary.ReadUvarint(oneByteReader{tee})
	if err != nil {
		return info, fmt.Errorf("%w: checkpoint position: %v", snap.ErrCorrupt, err)
	}
	rest, err := io.ReadAll(tee)
	if err != nil {
		return info, fmt.Errorf("%w: checkpoint body: %v", snap.ErrTruncated, err)
	}
	if len(rest) < 4 {
		return info, fmt.Errorf("%w: checkpoint body too short (%d bytes)", snap.ErrTruncated, len(rest))
	}
	payload, trailer := rest[:len(rest)-4], rest[len(rest)-4:]
	// The tee hashed the trailer too; recompute over just magic+pos+payload.
	crc = crc32.NewIEEE()
	crc.Write(m[:])
	var vb [binary.MaxVarintLen64]byte
	crc.Write(vb[:binary.PutUvarint(vb[:], pos64)])
	crc.Write(payload)
	if crc.Sum32() != binary.LittleEndian.Uint32(trailer) {
		return info, fmt.Errorf("%w: checkpoint checksum mismatch", snap.ErrCorrupt)
	}
	snapshot, trace, err := splitTraceSection(payload)
	if err != nil {
		return info, err
	}
	sr, err := snap.NewReader(bytes.NewReader(snapshot), "")
	if err != nil {
		return info, fmt.Errorf("embedded snapshot: %w", err)
	}
	info.Pos = int(pos64)
	info.Algo = sr.Algo()
	info.Version = sr.Version()
	info.Bytes = len(snapshot)
	info.Trace = trace
	return info, nil
}

// splitTraceSection splits a checkpoint payload (embedded snapshot plus
// optional trace section) without an algorithm instance to parse the
// snapshot with. The snapshot's own CRC-32 trailer locates its end: an
// untraced payload IS a whole container, so its last 4 bytes checksum
// everything before them; a traced payload has the trace section's 18 bytes
// after that trailer instead.
func splitTraceSection(payload []byte) (snapshot []byte, trace obs.TraceID, err error) {
	if len(payload) >= 4 &&
		crc32.ChecksumIEEE(payload[:len(payload)-4]) == binary.LittleEndian.Uint32(payload[len(payload)-4:]) {
		return payload, trace, nil
	}
	if n := len(payload) - ckptTraceExtra; n >= 4 &&
		string(payload[n:n+len(ckptTraceMark)]) == ckptTraceMark &&
		crc32.ChecksumIEEE(payload[:n-4]) == binary.LittleEndian.Uint32(payload[n-4:n]) {
		copy(trace[:], payload[n+len(ckptTraceMark):])
		return payload[:n], trace, nil
	}
	return nil, trace, fmt.Errorf("%w: embedded snapshot trailer not found", snap.ErrCorrupt)
}

// oneByteReader adapts an io.Reader to io.ByteReader without buffering, so
// varint decoding leaves the reader positioned exactly after the varint.
type oneByteReader struct{ r io.Reader }

func (b oneByteReader) ReadByte() (byte, error) {
	var one [1]byte
	_, err := io.ReadFull(b.r, one[:])
	return one[0], err
}

// AtomicWriteFile writes data to path via a fsynced temp file in the same
// directory plus rename, so readers never observe a partially written file
// and a crash mid-write leaves any previous file intact. Checkpoint files
// and the serving tier's FileStore both write through it.
func AtomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
