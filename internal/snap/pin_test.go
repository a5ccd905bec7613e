package snap_test

// TestCheckpointBytesPinned holds SHA-256 digests of SCSTATE1 snapshots and
// SCCKPT1 envelopes of every snapshottable algorithm, so any change to the
// codec that moves a single byte fails here first. The digests were
// computed before the codec became a one-slice encoder; the table must not
// be edited to make a codec change pass.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"streamcover/internal/adversarial"
	"streamcover/internal/core"
	"streamcover/internal/elementsampling"
	"streamcover/internal/kk"
	"streamcover/internal/multipass"
	"streamcover/internal/obs"
	"streamcover/internal/setarrival"
	"streamcover/internal/setcover"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
	"streamcover/internal/xrand"
)

const (
	pinN, pinM, pinOpt = 120, 600, 6
	pinSeed            = 7
)

// pinTrace is the trace ID stamped into the traced envelopes.
var pinTrace = obs.TraceID{0x5c, 0x0d, 0xec, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}

// pinCuts are the two stream fractions each algorithm is checkpointed at:
// alg1 is still in its A-phase at the first and in its remainder phase
// (so its trace holds MarkedAtAEnd and SolAtAEnd) at the second.
var pinCuts = []struct {
	name string
	frac float64
}{{"early", 0.4}, {"late", 0.9}}

// pinDigests maps "algo/cut/kind" to the SHA-256 of those bytes, where kind
// is "snapshot" (Snapshot's SCSTATE1 container), "ckpt" (an untraced
// SCCKPT1 envelope) or "traced" (an envelope stamped with pinTrace).
var pinDigests = map[string]string{
	"alg1/early/ckpt":                     "9a291d0649e29fbad838c6a47e5053d266eac60b50d6d599b2dcc061d85dacd9",
	"alg1/early/snapshot":                 "a71fa3dd2aa17bfefd85dfbed2b6c6ae39145add53992f8b5e537cda905d11d1",
	"alg1/early/traced":                   "f553e6734879cac9513838d25f9302d8d730d84d8ead6951920da460983a8f57",
	"alg1/late/ckpt":                      "3c5a5a56d062640a20971d09aca4af585dabb78c640af6611bc5cc2cf8b5b331",
	"alg1/late/snapshot":                  "294b026ddb2cf7220bff30d34f42b2ea34b9afb11f80f9bc65f8e295f3ae0f2f",
	"alg1/late/traced":                    "02d0a59e185d7764f5b8af6ffbe86f2d8bdab3b6fc92a0d0facab95d4aec4aab",
	"alg2/early/ckpt":                     "d3fbb9b8f68dd1d021b23563633096c9dc4d729e0c8929301423f1a08f9ca85f",
	"alg2/early/snapshot":                 "a1ebcc6a51611458539d160388d38fee7f4d94ae59214f80b041d83f334198de",
	"alg2/early/traced":                   "7c04a8d12e7e51b34d586a75935dce79ca92deae02add616e2dde75cce5f62a1",
	"alg2/late/ckpt":                      "d9cc9537b4df36f1f400bfdd800ff21507f650b3e8efe764e9d75e4cc784b320",
	"alg2/late/snapshot":                  "fa61bd727f5202ce03e59883e92d13b2705a983cd6c9e5f9095f9def128c7767",
	"alg2/late/traced":                    "b1258eb3b4cf33960f13e9d35ad2b2abef08493e2ea91d3cce621e5ceabae157",
	"ensemble/early/ckpt":                 "966f8f6a6db676ffc880bd4d1593ebb381de2e56bab8b0206618e4b4a1bf55cc",
	"ensemble/early/snapshot":             "f77e7b2963b323bfd0376cdc56a1486d0a8bc2395928bb5fca8ed11376e6fe15",
	"ensemble/early/traced":               "e528f7210cad2ae703708a93fa14e457537f782518b8f2f3b265b8cf4da20836",
	"ensemble/late/ckpt":                  "36b12b5fb03e7676df971c99378c31613c648ef92d566f33c9d7344573aacf1b",
	"ensemble/late/snapshot":              "cd64378b320b569cbdfc2bf121a078f9e8a44da1578e808a916dac0a6c553ef5",
	"ensemble/late/traced":                "7d188d98c33c9f2bfd32b738e16f3d83d15efd25134b80ad6383d2863f7eb5e0",
	"es/early/ckpt":                       "10e42a49045b37b62558a437c077260d24fdff4d638557714a6a5e426f687fa3",
	"es/early/snapshot":                   "7014fae3fdfddbd627b3b32ef1629d05bc849dd823e18e829540d9a1b386db28",
	"es/early/traced":                     "85a58b21e137a23bbdafd464f81a291ad7cceeb5b1ee113fbc4f3b0f42e0c863",
	"es/late/ckpt":                        "21ad8aff22faac43824099ce6b85ae7d9a92b4a021c4ca7b80ac1afaff0d1e58",
	"es/late/snapshot":                    "86ae435d7884f364adc7caf9515814c219a357c8c8025384e7add99a89704abd",
	"es/late/traced":                      "db119aa253dfe42263b4392cf916d32066652004c014becd7e2738f463b4baa2",
	"kk/early/ckpt":                       "83a89517cce568b0a18be0b06561286adecc18c69d7aa78fb175a53c0bebe696",
	"kk/early/snapshot":                   "44f1689badc99b5100d7c0d4756a14e9b5625ffdf18a460492871021ff7e96c8",
	"kk/early/traced":                     "dc347cb7fff210a2a256b640cadf74a0fc564be88570f25cca8c58bb5844df49",
	"kk/late/ckpt":                        "63f03b3d9dd32bdeba0872119a010e537a1ad47668c8b5bd5d2620789e767437",
	"kk/late/snapshot":                    "df8f191d1065afe2a93edf5970c0b42d3125144d1e2166c65ded0d1606c49ddd",
	"kk/late/traced":                      "e10f2316dd592fb88ce3f646b8fb2cc641c5077c47d60077ab01a6498686ff7f",
	"multipass/early/ckpt":                "4493dcc84390889dc3fde073b1da6b09b070d3e2977555219fb9940b0cd6adba",
	"multipass/early/snapshot":            "ff64be62d24f1af5f6a291d15188dbc803409f102d15a7f21927551c901a281c",
	"multipass/early/traced":              "a2d0b0ccf97cc19d131feecda3de6d1247226b379012649adc5b3142f440ebbd",
	"multipass/late/ckpt":                 "e65f3c83378ad3cf1689be420983fa1f51376f0a387f3f984ddc2e30d7e1b79d",
	"multipass/late/snapshot":             "7dfe056f9906467f56e4e88ab6447ef7b0faa4f4088c2f34cad9db5750809456",
	"multipass/late/traced":               "3b2099f68fc8b855a1c36f19bf6c53ca52ee29b5f7f012e3add07407f3a03cde",
	"setarrival-multipass/early/ckpt":     "aec2397c484e521145188dd78ecb7eecf0fb4f49377eef61abc0a56c384729fa",
	"setarrival-multipass/early/snapshot": "ab1b9eacd61b8d0d251c753698711e15f0a7d629bb432bccf8fd39938fa5da2d",
	"setarrival-multipass/early/traced":   "86f0099124758d0dbadecc41c10495c62d3b676484474a0a569aa5c23f20d736",
	"setarrival-multipass/late/ckpt":      "4d43b2d1c0f5eae6e39e3afc5ffc9003de7272bb98c8ba193381f1fe5b43f981",
	"setarrival-multipass/late/snapshot":  "ab1b9eacd61b8d0d251c753698711e15f0a7d629bb432bccf8fd39938fa5da2d",
	"setarrival-multipass/late/traced":    "ac4e24684dcc6f8c74e5edac57afeaaf3c7cf3469968626ea60b166744434787",
	"setarrival/early/ckpt":               "02af5fab8b09ab6fcb5c663abf8104d062eed6b4e63ce55f023eafb02dc1fded",
	"setarrival/early/snapshot":           "6f100cd84ef53c927ac0afa70f4deddcc3d7dcf730c6ada43a1edbc8409c674e",
	"setarrival/early/traced":             "c35e619c2fde0c428e4e3ff8046acac29686c4e1161a7075a5d3beeee2bd730e",
	"setarrival/late/ckpt":                "5dcadb73cddb265f0c8d8f97a49510c365ef095accdf14857c980d67b30ca3a1",
	"setarrival/late/snapshot":            "d7c814cf5182796f9f6c891abfdaaab0ba1fb8757d072cbb4af663bfb0dcb324",
	"setarrival/late/traced":              "033ef54e92a1e2a1c55bcf9e81d9cbd342de8cbaff91a78ee9a9148140a6d9bd",
}

// snapOnly lets an algorithm that is not a stream.Algorithm (the
// set-arrival and multi-pass algorithms) go through the SCCKPT1 envelope,
// which only needs its Snapshotter.
type snapOnly struct{ stream.Snapshotter }

func (snapOnly) Process(stream.Edge)     { panic("snapOnly: Process") }
func (snapOnly) Finish() *setcover.Cover { panic("snapOnly: Finish") }

// pinState builds algo and feeds it the first cut edges of edges (the
// set-arrival algorithms get whole sets in id order instead, the cut's share
// of the m sets).
func pinState(t *testing.T, algo string, w workload.Workload, edges []stream.Edge, cut int) stream.Snapshotter {
	t.Helper()
	rng := xrand.New(pinSeed)
	feed := func(alg stream.Algorithm) stream.Snapshotter {
		for _, e := range edges[:cut] {
			alg.Process(e)
		}
		return alg.(stream.Snapshotter)
	}
	switch algo {
	case "kk":
		return feed(kk.New(pinN, pinM, rng))
	case "alg1":
		return feed(core.New(pinN, pinM, len(edges), core.DefaultParams(pinN, pinM), rng))
	case "alg2":
		return feed(adversarial.New(pinN, pinM, 4, rng))
	case "es":
		return feed(elementsampling.New(pinN, pinM, 4, rng))
	case "ensemble":
		return feed(stream.NewEnsemble(kk.New(pinN, pinM, rng.Split()), kk.New(pinN, pinM, rng.Split())))
	case "setarrival", "setarrival-multipass":
		sets := cut * pinM / len(edges)
		if algo == "setarrival" {
			a := setarrival.NewThreshold(pinN)
			for s := 0; s < sets; s++ {
				a.ProcessSet(setcover.SetID(s), w.Inst.Set(setcover.SetID(s)))
			}
			return a
		}
		a := setarrival.NewMultiPassThreshold(pinN, 2)
		for s := 0; s < sets; s++ {
			a.ProcessSet(setcover.SetID(s), w.Inst.Set(setcover.SetID(s)))
		}
		return a
	case "multipass":
		a, err := multipass.New(pinN, pinM, multipass.Options{SampleBudget: 20}, rng)
		if err != nil {
			t.Fatal(err)
		}
		a.BeginPass()
		for _, e := range edges[:cut] {
			if err := a.ProcessEdge(e); err != nil {
				t.Fatal(err)
			}
		}
		return a
	}
	t.Fatalf("unknown algorithm %q", algo)
	return nil
}

func TestCheckpointBytesPinned(t *testing.T) {
	w := workload.Planted(xrand.New(pinSeed), pinN, pinM, pinOpt, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(pinSeed+1))
	algos := []string{"kk", "alg1", "alg2", "es", "ensemble", "setarrival", "setarrival-multipass", "multipass"}
	for _, algo := range algos {
		for _, c := range pinCuts {
			cut := int(c.frac * float64(len(edges)))
			kinds := map[string]func(sn stream.Snapshotter, buf *bytes.Buffer) error{
				"snapshot": func(sn stream.Snapshotter, buf *bytes.Buffer) error { return sn.Snapshot(buf) },
				"ckpt": func(sn stream.Snapshotter, buf *bytes.Buffer) error {
					return stream.WriteCheckpoint(buf, cut, snapOnly{sn})
				},
				"traced": func(sn stream.Snapshotter, buf *bytes.Buffer) error {
					return stream.WriteCheckpointTraced(buf, cut, pinTrace, snapOnly{sn})
				},
			}
			for kind, write := range kinds {
				key := fmt.Sprintf("%s/%s/%s", algo, c.name, kind)
				var buf bytes.Buffer
				if err := write(pinState(t, algo, w, edges, cut), &buf); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				sum := sha256.Sum256(buf.Bytes())
				got := hex.EncodeToString(sum[:])
				if want, ok := pinDigests[key]; !ok {
					t.Errorf("%s: no pinned digest; computed %q (%d bytes)", key, got, buf.Len())
				} else if got != want {
					t.Errorf("%s: digest %s (%d bytes), pinned %s — the checkpoint bytes changed", key, got, buf.Len(), want)
				}
			}
		}
	}
}
