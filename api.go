package streamcover

import (
	"io"
	"time"

	"streamcover/internal/adversarial"
	"streamcover/internal/core"
	"streamcover/internal/domset"
	"streamcover/internal/elementsampling"
	"streamcover/internal/fractional"
	"streamcover/internal/kk"
	"streamcover/internal/lowerbound"
	"streamcover/internal/multipass"
	"streamcover/internal/obs"
	"streamcover/internal/orlib"
	"streamcover/internal/serve"
	"streamcover/internal/setarrival"
	"streamcover/internal/setcover"
	"streamcover/internal/space"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
	"streamcover/internal/xrand"
)

// Problem model (internal/setcover).
type (
	// Instance is an immutable Set Cover instance over universe [0, n) with
	// m sets.
	Instance = setcover.Instance
	// Builder assembles an Instance incrementally from sets or edges.
	Builder = setcover.Builder
	// Cover is a solution: chosen sets plus a certificate mapping every
	// element to a chosen set containing it.
	Cover = setcover.Cover
	// Element identifies a universe element; SetID identifies a set.
	Element = setcover.Element
	SetID   = setcover.SetID
)

// NoSet marks an element without a covering witness in a certificate.
const NoSet = setcover.NoSet

// NewInstance builds a validated instance; see setcover.NewInstance.
func NewInstance(n int, sets [][]Element) (*Instance, error) {
	return setcover.NewInstance(n, sets)
}

// NewBuilder starts an incremental instance builder over n elements.
func NewBuilder(n int) *Builder { return setcover.NewBuilder(n) }

// Greedy computes the offline (ln n + 1)-approximate greedy cover.
func Greedy(inst *Instance) (*Cover, error) { return setcover.Greedy(inst) }

// Exact computes an optimal cover for universes of at most 64 elements.
func Exact(inst *Instance) (*Cover, error) { return setcover.Exact(inst) }

// TrivialCover covers every element with its first containing set.
func TrivialCover(inst *Instance) (*Cover, error) { return setcover.TrivialCover(inst) }

// WeightedCover couples a cover with its total cost (for OR-Library
// instances with column costs).
type WeightedCover = setcover.WeightedCover

// WeightedGreedy computes the H_n-approximate cost-effectiveness greedy.
func WeightedGreedy(inst *Instance, costs []int) (*WeightedCover, error) {
	return setcover.WeightedGreedy(inst, costs)
}

// WeightedExact computes a minimum-cost cover for universes of ≤ 64
// elements.
func WeightedExact(inst *Instance, costs []int) (*WeightedCover, error) {
	return setcover.WeightedExact(inst, costs)
}

// Streaming substrate (internal/stream, internal/space, internal/xrand).
type (
	// Edge is one stream tuple (S, u).
	Edge = stream.Edge
	// Stream is a finite, replayable edge sequence.
	Stream = stream.Stream
	// Algorithm is a one-pass streaming set cover algorithm.
	Algorithm = stream.Algorithm
	// Order selects an arrival order (SetMajor .. Random).
	Order = stream.Order
	// Result is the outcome of driving an Algorithm over a Stream.
	Result = stream.Result
	// SpaceUsage is a peak-space snapshot split into the m-dependent state
	// and the Õ(n) bookkeeping.
	SpaceUsage = space.Usage
	// Rand is the deterministic random generator all algorithms draw from.
	Rand = xrand.Rand
	// StreamHeader describes an encoded stream file.
	StreamHeader = stream.Header
)

// Arrival orders re-exported from internal/stream.
const (
	SetMajor         = stream.SetMajor
	SetMajorShuffled = stream.SetMajorShuffled
	ElementMajor     = stream.ElementMajor
	RoundRobin       = stream.RoundRobin
	HighDegreeLast   = stream.HighDegreeLast
	RandomOrder      = stream.Random
)

// Orders lists every defined arrival order, for sweep experiments.
func Orders() []Order { return stream.Orders() }

// NewRand returns a deterministic generator for the given seed.
func NewRand(seed uint64) *Rand { return xrand.New(seed) }

// EdgesOf materialises an instance's edges in canonical set-major order.
func EdgesOf(inst *Instance) []Edge { return stream.EdgesOf(inst) }

// Arrange materialises the edges of inst in the given arrival order.
func Arrange(inst *Instance, o Order, rng *Rand) []Edge { return stream.Arrange(inst, o, rng) }

// Run drives a streaming algorithm over a stream and collects the cover and
// peak space.
func Run(alg Algorithm, s Stream) Result { return stream.Run(alg, s) }

// RunEdges is Run over an in-memory edge slice.
func RunEdges(alg Algorithm, edges []Edge) Result { return stream.RunEdges(alg, edges) }

// NewSliceStream wraps an edge slice as a Stream.
func NewSliceStream(edges []Edge) Stream { return stream.NewSlice(edges) }

// EncodeStream writes a stream file (see internal/stream's binary format).
func EncodeStream(w io.Writer, hdr StreamHeader, edges []Edge) error {
	return stream.Encode(w, hdr, edges)
}

// DecodeStream reads a stream file, verifying structure and checksum.
func DecodeStream(r io.Reader) (StreamHeader, []Edge, error) { return stream.Decode(r) }

// Algorithms.
type (
	// KK is the KK-algorithm (Theorem 1): Õ(√n)-approximation, Õ(m) space,
	// adversarial order.
	KK = kk.Algorithm
	// Adversarial is Algorithm 2 (Theorem 4): O(α·log m) expected
	// approximation, Õ(mn/α²) space, adversarial order.
	Adversarial = adversarial.Algorithm
	// RandomOrderAlg is Algorithm 1 (Theorem 3, the main result):
	// Õ(√n)-approximation, Õ(m/√n) space, random order.
	RandomOrderAlg = core.Algorithm
	// RandomOrderParams tunes Algorithm 1's schedule.
	RandomOrderParams = core.Params
	// ElementSampling is the α = o(√n) regime algorithm: O(α·log)
	// approximation, Õ(mn/α) space.
	ElementSampling = elementsampling.Algorithm
	// SetArrivalThreshold is the classical set-arrival O(√n)-approximation
	// baseline with O(n) space.
	SetArrivalThreshold = setarrival.Threshold
	// StoreAll is the unbounded-space reference (store everything, solve
	// greedily at the end).
	StoreAll = stream.StoreAll
)

// NewKK returns a KK-algorithm run for n elements and m sets.
func NewKK(n, m int, rng *Rand) *KK { return kk.New(n, m, rng) }

// NewAdversarial returns an Algorithm 2 run targeting approximation alpha.
func NewAdversarial(n, m int, alpha float64, rng *Rand) *Adversarial {
	return adversarial.New(n, m, alpha, rng)
}

// NewRandomOrder returns an Algorithm 1 run for a stream of streamLen edges
// with the practical default parameters.
func NewRandomOrder(n, m, streamLen int, rng *Rand) *RandomOrderAlg {
	return core.New(n, m, streamLen, core.DefaultParams(n, m), rng)
}

// NewRandomOrderWithParams returns an Algorithm 1 run with explicit
// parameters (e.g. core-faithful constants via FaithfulRandomOrderParams).
func NewRandomOrderWithParams(n, m, streamLen int, p RandomOrderParams, rng *Rand) *RandomOrderAlg {
	return core.New(n, m, streamLen, p, rng)
}

// DefaultRandomOrderParams returns Algorithm 1's practical calibration.
func DefaultRandomOrderParams(n, m int) RandomOrderParams { return core.DefaultParams(n, m) }

// FaithfulRandomOrderParams returns the paper's verbatim constants.
func FaithfulRandomOrderParams(n, m int) RandomOrderParams { return core.FaithfulParams(n, m) }

// NewElementSampling returns an element-sampling run targeting alpha.
func NewElementSampling(n, m int, alpha float64, rng *Rand) *ElementSampling {
	return elementsampling.New(n, m, alpha, rng)
}

// NewSetArrivalThreshold returns the set-arrival threshold baseline.
func NewSetArrivalThreshold(n int) *SetArrivalThreshold { return setarrival.NewThreshold(n) }

// RunSetArrival drives a set-arrival baseline over a set-contiguous
// edge-arrival stream.
func RunSetArrival(t *SetArrivalThreshold, s Stream) (*Cover, error) {
	return setarrival.RunSetArrival(t, s)
}

// NewStoreAll returns the unbounded-space reference algorithm.
func NewStoreAll(n, m int) *StoreAll { return stream.NewStoreAll(n, m) }

// Ensemble runs independent copies of a randomized algorithm in parallel
// and keeps the smallest cover — the paper's high-probability boosting
// device (remarks after Theorems 2 and 4). Copies are sharded over worker
// goroutines (one per available core by default, see SetParallelism); with
// one worker it degenerates to the sequential loop. Either way each copy's
// execution is bit-identical to running it alone.
type Ensemble = stream.Ensemble

// NewEnsemble wraps independently-seeded copies.
func NewEnsemble(copies ...Algorithm) *Ensemble { return stream.NewEnsemble(copies...) }

// Checkpoint/resume (internal/stream + internal/snap).
type (
	// Snapshotter is implemented by algorithms whose complete mid-stream
	// state can be serialized and restored (all of this package's streaming
	// algorithms except StoreAll and the fractional solver).
	Snapshotter = stream.Snapshotter
	// CheckpointPolicy configures periodic checkpointing during Run.
	CheckpointPolicy = stream.CheckpointPolicy
	// CheckpointInfo describes a checkpoint file without restoring it.
	CheckpointInfo = stream.CheckpointInfo
)

// ErrNotSnapshottable reports an algorithm without snapshot support.
var ErrNotSnapshottable = stream.ErrNotSnapshottable

// RunCheckpointed is Run with periodic checkpoints written per policy.
func RunCheckpointed(alg Algorithm, s Stream, p CheckpointPolicy) (Result, error) {
	return stream.RunCheckpointed(alg, s, p)
}

// RunCheckpointedFrom resumes a restored algorithm at absolute stream
// position from (as recorded in its checkpoint) and finishes the run.
func RunCheckpointedFrom(alg Algorithm, s Stream, p CheckpointPolicy, from int) (Result, error) {
	return stream.RunCheckpointedFrom(alg, s, p, from)
}

// WriteCheckpointFile atomically writes alg's state at stream position pos.
func WriteCheckpointFile(path string, pos int, alg Algorithm) error {
	return stream.WriteCheckpointFile(path, pos, alg)
}

// ReadCheckpointFile restores alg from a checkpoint file and returns the
// stream position to resume from.
func ReadCheckpointFile(path string, alg Algorithm) (int, error) {
	return stream.ReadCheckpointFile(path, alg)
}

// InspectCheckpoint reads a checkpoint's envelope (position, algorithm tag,
// state version, payload size) without an algorithm instance.
func InspectCheckpoint(r io.Reader) (CheckpointInfo, error) {
	return stream.InspectCheckpoint(r)
}

// Multi-pass baseline ([6]-style sample-and-prune).
type (
	// MultiPassOptions configure RunMultiPass.
	MultiPassOptions = multipass.Options
	// MultiPassResult reports a multi-pass run.
	MultiPassResult = multipass.Result
)

// RunMultiPass executes the multi-pass sample-and-prune baseline over a
// replayable stream, drawing element-sampling coins from rng.
func RunMultiPass(n, m int, s Stream, opt MultiPassOptions, rng *Rand) (MultiPassResult, error) {
	return multipass.Run(n, m, s, opt, rng)
}

// Fractional Set Cover ([16], cited in §1).
type (
	// FractionalSolution is a fractional set cover with its LP value.
	FractionalSolution = fractional.Solution
	// FractionalOptions configure SolveFractional.
	FractionalOptions = fractional.Options
)

// SolveFractional runs the multi-pass multiplicative-weights fractional
// solver over a replayable edge stream.
func SolveFractional(n, m int, s Stream, opt FractionalOptions) (*FractionalSolution, error) {
	return fractional.Solve(n, m, s, opt)
}

// RoundFractional converts a fractional solution into an integral cover by
// randomized rounding plus one witness-collection pass.
func RoundFractional(n, m int, s Stream, sol *FractionalSolution, rng *Rand) (*Cover, error) {
	return fractional.Round(n, m, s, sol, rng)
}

// FractionalDualBound extracts a certified lower bound on OPT from a solved
// fractional instance via LP duality (two extra passes).
func FractionalDualBound(n, m int, s Stream, sol *FractionalSolution) (float64, error) {
	return sol.DualBound(n, m, s)
}

// SetArrivalMultiPass is the Chakrabarti–Wirth p-pass set-arrival
// baseline ([10]): O(p·n^{1/(p+1)})-approximation in O(n) words.
type SetArrivalMultiPass = setarrival.MultiPassThreshold

// NewSetArrivalMultiPass returns a p-pass set-arrival run.
func NewSetArrivalMultiPass(n, p int) *SetArrivalMultiPass {
	return setarrival.NewMultiPassThreshold(n, p)
}

// RunSetArrivalMultiPass drives all p passes over a set-contiguous stream.
func RunSetArrivalMultiPass(t *SetArrivalMultiPass, s Stream) (*Cover, error) {
	return setarrival.RunMultiPassSetArrival(t, s)
}

// OpenStreamFile opens an on-disk stream file (scgen's format) for lazy,
// larger-than-memory replay. The magic and header are validated up front;
// the CRC-32 checksum is folded into the first replay pass and surfaces as
// ErrStreamCorrupt from the stream's Err method (and Result.Err) when the
// pass completes — pass FileOptions{EagerVerify: true} to OpenStreamFileWith
// for the old pay-up-front scan.
func OpenStreamFile(path string) (*stream.File, error) { return stream.OpenFile(path) }

// FileOptions tune OpenStreamFileWith (eager verification, window size).
type FileOptions = stream.FileOptions

// OpenStreamFileWith opens an on-disk stream file with explicit options.
func OpenStreamFileWith(path string, opt FileOptions) (*stream.File, error) {
	return stream.OpenFileWith(path, opt)
}

// ErrStreamCorrupt reports a malformed or checksum-failing stream file.
var ErrStreamCorrupt = stream.ErrCorrupt

// StreamPrefetcher decodes a stream on a background goroutine into a small
// ring of reusable batch buffers, overlapping decode with algorithm work.
// It preserves the exact edge order of the wrapped stream.
type StreamPrefetcher = stream.Prefetcher

// NewStreamPrefetcher wraps s in a background prefetcher with the default
// ring depth and batch length. Close it when done to stop the goroutine.
func NewStreamPrefetcher(s Stream) *StreamPrefetcher { return stream.NewPrefetcher(s) }

// StreamErr reports the sticky decode error of a stream, if it exposes one
// (lazily verified files, prefetchers); nil otherwise.
func StreamErr(s Stream) error { return stream.StreamErr(s) }

// ORLibInstance is a parsed OR-Library SCP benchmark instance (columns
// carry costs; the streaming algorithms solve the unweighted problem, and
// WeightedGreedy/WeightedExact use the costs).
type ORLibInstance = orlib.Instance

// ParseORLib reads an instance in the OR-Library SCP text format.
func ParseORLib(r io.Reader) (*ORLibInstance, error) { return orlib.Parse(r) }

// WriteORLib emits an instance in the OR-Library SCP text format (unit
// costs when costs is nil).
func WriteORLib(w io.Writer, inst *Instance, costs []int) error {
	return orlib.Write(w, inst, costs)
}

// ProtocolResult reports the deterministic t-party protocol (paper §3).
type ProtocolResult = lowerbound.ProtocolResult

// RunSimpleProtocol runs the deterministic t-party protocol with
// approximation 2√(nt) and Õ(n) messages on per-party edge lists.
func RunSimpleProtocol(n int, parties [][]Edge) (ProtocolResult, error) {
	return lowerbound.SimpleProtocol(n, parties)
}

// SplitEdges partitions a stream into t consecutive equal chunks, the
// canonical per-party split.
func SplitEdges(edges []Edge, t int) [][]Edge { return lowerbound.SplitEdges(edges, t) }

// Workloads (internal/workload).
type Workload = workload.Workload

// PlantedWorkload builds an instance with a known planted optimum.
func PlantedWorkload(rng *Rand, n, m, opt, noiseSize int) Workload {
	return workload.Planted(rng, n, m, opt, noiseSize)
}

// DominatingSetWorkload builds the m = n Dominating Set special case from a
// G(n, p) random graph.
func DominatingSetWorkload(rng *Rand, n int, p float64) Workload {
	return workload.DominatingSet(rng, n, p)
}

// ZipfWorkload builds a heavy-tailed element-degree instance.
func ZipfWorkload(rng *Rand, n, m, meanSize int, s float64) Workload {
	return workload.ZipfSkewed(rng, n, m, meanSize, s)
}

// Dominating Set on graph streams — the m = n special case ([19], §1).
type (
	// GraphEdge is one undirected edge of a graph stream.
	GraphEdge = domset.GraphEdge
	// DominatingSetAdapter feeds a Set Cover algorithm from a graph stream.
	DominatingSetAdapter = domset.Adapter
	// DominatingSetResult is a dominating set with per-vertex dominators.
	DominatingSetResult = domset.Result
)

// NewDominatingSetAdapter wraps a streaming Set Cover algorithm (built for
// n elements and m = n sets) to consume undirected graph edges directly.
func NewDominatingSetAdapter(n int, alg Algorithm) *DominatingSetAdapter {
	return domset.NewAdapter(n, alg)
}

// Lower-bound machinery (internal/lowerbound).
type (
	// LBFamily is the Lemma 1 random set family.
	LBFamily = lowerbound.Family
	// LBDisjointness is a t-party Set-Disjointness promise instance.
	LBDisjointness = lowerbound.Disjointness
	// LBReduction assembles the Theorem 2 reduction streams.
	LBReduction = lowerbound.Reduction
)

// NewLBFamily draws a Lemma 1 family of count sets over [0, n) in t parts.
func NewLBFamily(rng *Rand, n, count, t int) *LBFamily {
	return lowerbound.NewFamily(rng, n, count, t)
}

// NewLBReduction pairs a family with a disjointness instance.
func NewLBReduction(f *LBFamily, d *LBDisjointness) (*LBReduction, error) {
	return lowerbound.NewReduction(f, d)
}

// Network serving (internal/serve): the SCWIRE1 edge-stream ingestion
// service behind scserve/scfeed — one-pass sessions over TCP with
// disconnect-tolerant checkpoint/resume.
type (
	// ServeConfig is one session's algorithm shape, carried in hello and
	// resume frames.
	ServeConfig = serve.Config
	// ServeServerConfig shapes a ServeServer (address, checkpoint store,
	// timeouts).
	ServeServerConfig = serve.ServerConfig
	// ServeCheckpointStore persists detach checkpoints behind a pluggable
	// Put/Get/Delete/Reserve interface (FileStore, MemStore, or an
	// embedder's own backend).
	ServeCheckpointStore = serve.CheckpointStore
	// ServeServer accepts SCWIRE1 connections and runs one registered
	// streaming algorithm per session.
	ServeServer = serve.Server
	// ServeClient speaks SCWIRE1 from the feeding side.
	ServeClient = serve.Client
	// ServeResult is a finished session's cover, certificate and space
	// report.
	ServeResult = serve.Result
	// ServeFeeder deterministically replays an edge slice into a session,
	// including across kill-and-resume cycles.
	ServeFeeder = serve.Feeder
	// ServeFactory builds one algorithm copy for a session configuration.
	ServeFactory = serve.Factory
	// ServeRouter is the cluster front door: it places sessions on shards
	// via a consistent-hash ring over the resume token and splices the
	// connection, failing over in ring order when a shard is down.
	ServeRouter = serve.Router
	// ServeRouterConfig shapes a ServeRouter (listen address, shard set,
	// ring replicas, failover cooldowns).
	ServeRouterConfig = serve.RouterConfig
)

// NewServeServer builds a serving instance (and its session manager).
func NewServeServer(cfg ServeServerConfig) (*ServeServer, error) { return serve.NewServer(cfg) }

// NewServeFileStore opens (creating if absent) the durable atomic-file
// checkpoint store: one `<token>.ckpt` per detached session.
func NewServeFileStore(dir string) (ServeCheckpointStore, error) { return serve.NewFileStore(dir) }

// NewServeMemStore returns the in-process checkpoint store — dirless and
// fast, but checkpoints do not survive the process.
func NewServeMemStore() ServeCheckpointStore { return serve.NewMemStore() }

// DialServe connects a client to a running server.
func DialServe(addr string) (*ServeClient, error) { return serve.Dial(addr) }

// NewServeRouter builds the consistent-hash session router over a shard
// set. Placement is locality, not correctness: back the shards with a
// shared checkpoint store (NewServeClusterStore) and any shard can adopt
// any session.
func NewServeRouter(cfg ServeRouterConfig) (*ServeRouter, error) { return serve.NewRouter(cfg) }

// NewServeClusterStore returns a CheckpointStore speaking the SCSTOR1
// protocol to a shared store server — the piece that makes a sharded
// cluster's checkpoints reachable from every shard. timeout bounds each
// round trip (0 picks the default).
func NewServeClusterStore(addr string, timeout time.Duration) ServeCheckpointStore {
	return serve.NewClusterStore(addr, timeout)
}

// NewServeStoreServer serves an existing CheckpointStore over SCSTOR1 so a
// fleet of shards can share it.
func NewServeStoreServer(backing ServeCheckpointStore) (*serve.StoreServer, error) {
	return serve.NewStoreServer(backing)
}

// RegisterServeAlgorithm adds a factory so embedders can serve their own
// streaming algorithms through the session manager.
func RegisterServeAlgorithm(name string, f ServeFactory) { serve.Register(name, f) }

// ServeAlgorithms lists the registered serveable algorithm names.
func ServeAlgorithms() []string { return serve.Algorithms() }

// TraceID is a session's 128-bit end-to-end identity: minted at open,
// carried in SCWIRE1 v2 hello/resume/ack frames, stamped into SCCKPT1
// checkpoint envelopes, and surfaced by /sessions and the wide-event log —
// one ID follows a session across disconnect, checkpoint and resume.
type TraceID = obs.TraceID

// NewTraceID mints a random trace ID (never zero).
func NewTraceID() TraceID { return obs.NewTraceID() }

// ParseTraceID parses the canonical 32-hex-digit form produced by
// TraceID.String.
func ParseTraceID(s string) (TraceID, error) { return obs.ParseTraceID(s) }

// Typed serve-layer failures, surfaced by ServeClient methods.
var (
	// ErrServeWire reports malformed SCWIRE1 traffic.
	ErrServeWire = serve.ErrWire
	// ErrServeRemote wraps any failure the server reported in an error frame.
	ErrServeRemote = serve.ErrRemote
	// ErrServeRemoteMismatch reports a resume against a checkpoint written
	// by a different algorithm or instance shape.
	ErrServeRemoteMismatch = serve.ErrRemoteMismatch
	// ErrServeDraining reports a session refused because the server is
	// shutting down.
	ErrServeDraining = serve.ErrDraining
	// ErrServeCheckpointNotFound is the checkpoint stores' typed not-found
	// error: Get/Delete on a token with no checkpoint wraps it.
	ErrServeCheckpointNotFound = serve.ErrCheckpointNotFound
)
