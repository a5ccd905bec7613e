package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SessionEvent is one wide event: a self-describing record of a session
// lifecycle transition carrying everything a log pipeline needs to
// reconstruct the session's story without joining other streams. One JSON
// line per event; field names are the schema.
type SessionEvent struct {
	// TimeUnixNs is stamped by Emit when zero.
	TimeUnixNs int64 `json:"ts_unix_ns"`
	// Event is the transition: session_open, session_resume,
	// session_detach, session_finish, session_fail, server_drain.
	Event string `json:"event"`

	Token string `json:"token,omitempty"`
	Trace string `json:"trace,omitempty"`
	Algo  string `json:"algo,omitempty"`

	Edges           int64 `json:"edges,omitempty"`
	CheckpointBytes int64 `json:"checkpoint_bytes,omitempty"`
	// Active rides on server_drain: sessions still attached at drain start.
	Active int64 `json:"active,omitempty"`

	// Cause says why a detach or failure happened ("detach-frame",
	// "disconnect", "drain", or an error string).
	Cause string `json:"cause,omitempty"`

	// Store names the checkpoint-store backend ("dir", "mem", "cluster")
	// on detach/resume events — the events whose durability depends on it.
	Store string `json:"store,omitempty"`

	// Shard names the serving process that emitted the event (scserve
	// -shard), so a fleet's merged event streams stay attributable.
	Shard string `json:"shard,omitempty"`
	// Adopted rides on session_resume: true when the checkpoint was
	// written by a different process — a cross-shard adoption.
	Adopted bool `json:"adopted,omitempty"`
}

// Lifecycle event names, so emitters and tests share one spelling.
const (
	EventSessionOpen   = "session_open"
	EventSessionResume = "session_resume"
	EventSessionDetach = "session_detach"
	EventSessionFinish = "session_finish"
	EventSessionFail   = "session_fail"
	EventServerDrain   = "server_drain"
)

// WideEventLog writes session lifecycle transitions as one JSON object per
// line. It follows the package's nil-safe/obsoff contract: a nil log (or an
// obsoff build) ignores every Emit, so the serving layer carries one
// pointer and pays an inlined nil check when the log is off. Lifecycle
// transitions are session-rate, not edge-rate, so Emit may allocate.
type WideEventLog struct {
	mu sync.Mutex
	w  io.Writer
}

// NewWideEventLog returns a log writing to w (nil w returns a nil, inert
// log). The writer is serialized by the log's lock; it need not be
// concurrency-safe itself.
func NewWideEventLog(w io.Writer) *WideEventLog {
	if w == nil {
		return nil
	}
	return &WideEventLog{w: w}
}

// Emit writes one event line. Write errors are swallowed — observability
// must never take the serving path down.
func (l *WideEventLog) Emit(ev SessionEvent) {
	if !Enabled || l == nil {
		return
	}
	if ev.TimeUnixNs == 0 {
		ev.TimeUnixNs = time.Now().UnixNano()
	}
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	b = append(b, '\n')
	l.mu.Lock()
	_, _ = l.w.Write(b)
	l.mu.Unlock()
}
