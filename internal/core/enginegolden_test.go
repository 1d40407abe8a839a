package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"
)

// engineTableDigests holds the sha256 of the rendered quick-mode output of
// every non-measured experiment whose pgas worlds record engine events in
// its own registry, plus T1, whose demonstrator worlds record into the
// default registry and whose W3 row is the quick cell that breaking ties
// by rank instead of by emission changes. They were recorded on the
// container/heap kernel that pgas ran on before it moved to the pdes
// engine, so any change to event order shows up here as a changed table.
// T12, whose daemon simulator (internal/serve/sim) is the other event-loop
// user, was recorded on that simulator's own container/heap loop and
// re-recorded, in quick and full mode, when its makespan became the time
// of the last answer rather than of the last event: that moved only the
// worker-idle, served/s and makespan cells of the rows whose request
// budget ran out while clients were still thinking.
var engineTableDigests = map[string]string{
	"F11": "4560fcf771605c013260bb87a41a7bee58a8f8f0cc424e2e9425c7f3f39b8a81",
	"F12": "eb28266cbe7e84dea3328ced0ccad770dc15a5b4a9d3dcef082d205b7b092469",
	"F14": "bce1f193b80157722428d777c3d720d31e5cff43181388937727cd7a92f75099",
	"F18": "0f4bbf0de45ca7a4eb1de65788110d978e59667165a596bc691c2b3a7030aca0",
	"F19": "5943e74c8c68754c32b23daa7bdc5c77076457b1921e84a69098cda1cd57bd7a",
	"F21": "c94c475192e97de0e403b8a16c045f586fadf95a84893c55e0b1de0058a7ba0a",
	"F22": "554eefd0468b0898fda5da05df67e7e607c0d175644cf98fdcc8206fc91048d4",
	"F23": "693ee800028c601c4af9a56f9723de94bdbe8e56172fef5191a30f05d7830a2e",
	"F24": "aa0f6d9629db5b47901ae92c2ea16259da3ff20122563105f9a74716592eccfd",
	"F25": "e0dcb39b59ca1c05646d6e16bf0939fe0e214b47244ff43667488f9573d17eb4",
	"T1":  "be909746bdd6049b7a05a3af31488df4b450d15ddd6c7a278c594bc3aacd498d",
	"T3":  "054f6099b11cf92a0679ecd1644d3583f9af7f8327b479bf609ed0d183e02208",
	"T5":  "24f43c5e58af268deaddd75e9f5631e40c1bb1b55f5ce19ade3a5abbf1bc609d",
	"T7":  "55b38cd249b65860666ce3b846e8ca4f003ca140c76d45f3ca1c198235c577ce",
	"T8":  "fc83086bb8b5935968118d81a277eb8c7ca37f5a76eb74e8911b477bf66e58d1",
	"T12": "8d8ed04439930523033a800194fbe46fd08f5a70b25a2bc3c85447a1a5d80496",
}

func TestEngineTablesGolden(t *testing.T) {
	checkTableDigests(t, Config{Quick: true}, engineTableDigests)
}

// memTableDigests holds the sha256 of the rendered quick-mode output of
// the experiments that run on internal/mem's cache hierarchy (T1, pinned
// above, is the fifth). They were recorded on the simulator whose
// coherence directory was a Go map and whose F20 simulated each placement
// separately, so a change to the directory, the prefetcher or the NUMA
// accounting that reaches a table shows up here.
var memTableDigests = map[string]string{
	"F1":  "754e1318c6d95eb980561b28e1641d16b3d21f37a0eca2bd3ee08d38c238bf05",
	"F9":  "3700e3f499851fe54e46937bcbcf2617ebe38d9ee4d8683f439352180d95ff2b",
	"F17": "4c65e50e6fdd02337202fad9d7174645952e48a677aa61d1bd870e6972335659",
	"F20": "bf130ccd93d3d99db0491f60659c22a6d0a49f6653b81b17aa74d804744b0f81",
}

func TestMemTablesGolden(t *testing.T) {
	checkTableDigests(t, Config{Quick: true}, memTableDigests)
}

// checkTableDigests runs the experiments named in want under cfg and
// compares each one's rendered output with its recorded sha256.
func checkTableDigests(t *testing.T, cfg Config, want map[string]string) {
	t.Helper()
	ids := make([]string, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	results, err := NewLab().RunAll(context.Background(), cfg, RunOptions{Workers: 2, IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		h := sha256.New()
		if err := r.Output.Render(h); err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[r.ID] {
			t.Errorf("%s: rendered output (quick %v) sha256 %s, want %s", r.ID, cfg.Quick, got, want[r.ID])
		}
	}
}

// fullTableDigests holds the sha256 of the rendered full-mode output of the
// allreduce experiments, whose quick mode stops at P = 64 (T3) and P = 32
// (F14), and of the memory experiments whose full mode simulates larger
// traces than quick (F9, F17, F20). The allreduce digests were recorded
// while the allreduces still carried and summed their vectors, so they pin
// the size-only schedule to the data-carrying one up to P = 256; the
// memory digests were recorded with memTableDigests. Full T12 runs three
// times the clients and 7.5 times the requests of quick T12 and was
// recorded with it.
var fullTableDigests = map[string]string{
	"F14": "06c38ea091e785f8db550fb847a4a48fcf827998c3c989f240ba788202540a7b",
	"T3":  "893ed0c0e47735ac8ca067b9f227f5e3ae2c5312d090eed2cc58937f863def09",
	"F9":  "cc2c520f80bd17d48ef6bd6d64e849f92eb98bd252915a441ae81bcca783310f",
	"F17": "94e6d471d0de88b8419bb221f9840ee380f176572823737864115b114d845f15",
	"F20": "c82831fd590ce811c767c51561164562011080e0dccd50ba1b87f4122bfa75e4",
	"T12": "674e05e806b1504f2ec4c24560e6ba2decc02f1edb493326108b9182ea6f6647",
}

func TestFullTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-mode T3, F14, F9, F17 and F20 take a few seconds")
	}
	checkTableDigests(t, Config{}, fullTableDigests)
}
