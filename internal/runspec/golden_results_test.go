package runspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
)

// goldenKernelResults holds, per kernel, the SHA-256 of the full Result
// JSON of a tiny run on 8 CMPs in slipstream mode with transparent loads
// and self-invalidation: the richest configuration, the one that
// schedules self-invalidation hints.
var goldenKernelResults = map[string]string{
	"BITONIC":  "006875db8022950d213fd7f693a90f19137a492a1aaa366fb1d44fe8ce2d9f99",
	"CG":       "5589a5d3b4104dfc83de648343e5799e54bf33197e87fa63c5e0cc4172d30ce6",
	"FFT":      "b46fb107d84306ab39f782b1a49eda0bc79a2518a13aaa2ca1b401b85f50285b",
	"FWT":      "a2b7607bbd8dda99a164e1b087ce1d7850b15957112481ed0479435ab755b308",
	"LU":       "2aae24fb786731fd5fdbb0b0a294af11ebfb1977774d03c4bd317c403e1e9758",
	"MAXPOOL":  "aa4805ce45a552678cec7aea4720fc2034532e26278037cf438d9eb8d848c2eb",
	"MG":       "694ca3319192d34a1d143a4a7a885d8c2141e6165afc0070b3614fec5030d7a3",
	"OCEAN":    "c491e988d32e3efcbada1e9463cbce8e983029ac041bc331e021e230db8397e8",
	"SOR":      "d43c000587e433a3dabe12d5f822c37f333c756aeb7506bbea59660deb7ca113",
	"SP":       "9b3161e4ee9b5d333194fbb182bc7cc8c5937b6cf3cd51c0cde2ae24e85d95f7",
	"SYNTH":    "c97a6313e6360cfafc762fd265f1a9d50e86ffc7cd5fd197b26cb3c1d2afd3c1",
	"WATER-NS": "4c1ee01217964580017742aca4b831cb9a59cb3cfb36d622fdc18090ee25c143",
	"WATER-SP": "427ce9baaec9b3a7f8c9a808b43ae41055e14fa19c69b6142ca549e4e5adc8fb",
}

// TestGoldenResults pins simulated results as a committed fixed point:
// the SHA-256 of each Result's JSON encoding for every kernel, two
// parameterized SYNTH presets, and a four-mode sweep on SOR. The hashes
// were captured at core.SimVersion "2"; a failure means a change moved a
// simulated number. If that is intentional, bump core.SimVersion and
// recapture the table with it. Run under SLIPSIM_AUDIT=1 the same specs
// are checked with the auditor attached, which must not move a hash.
func TestGoldenResults(t *testing.T) {
	if core.SimVersion != "2" {
		t.Fatalf("core.SimVersion = %q; golden results captured at \"2\" — recapture the table alongside the version bump", core.SimVersion)
	}
	check := func(t *testing.T, sp RunSpec, audit bool, want string) {
		t.Helper()
		res, err := sp.RunObserved(audit)
		if err != nil {
			t.Fatalf("%v: %v", sp, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%v (audit=%t): result hash %s, want %s", sp, audit, got, want)
		}
	}
	slip := func(kernel string, params kernels.Params) RunSpec {
		return RunSpec{
			Kernel: kernel, Params: params, Size: kernels.Tiny,
			Mode: core.ModeSlipstream, CMPs: 8,
			TransparentLoads: true, SelfInvalidate: true,
		}
	}

	for _, name := range kernels.AllNames() {
		t.Run(name, func(t *testing.T) {
			want, ok := goldenKernelResults[name]
			if !ok {
				t.Fatalf("no golden result for kernel %s", name)
			}
			check(t, slip(name, ""), false, want)
		})
	}

	t.Run("synth-presets", func(t *testing.T) {
		for _, g := range []struct {
			params kernels.Params
			hash   string
		}{
			{"mig=0.4,pc=3,seed=11", "554aa54a7774080575cd60cccaa7e08e3e19d21898ab50b9b2c637b49ab28753"},
			{"fs=0.3,lock=1,sync=0.2,wr=0.8", "afe89f5a22aae6051283fd6b5e33ac4073bc7fc3c302a3d8df954ecb9e1661d9"},
		} {
			check(t, slip("SYNTH", g.params), false, g.hash)
		}
	})

	t.Run("modes", func(t *testing.T) {
		for _, g := range []struct {
			sp   RunSpec
			hash string
		}{
			{RunSpec{Kernel: "sor", Size: kernels.Tiny, Mode: core.ModeSequential, CMPs: 1},
				"bcbf8722a9067e9869cc25842de396df12eb501c6241a508d2af3b62a89a5425"},
			{RunSpec{Kernel: "sor", Size: kernels.Tiny, Mode: core.ModeSingle, CMPs: 4},
				"5327040f441159a2ec7d4bbc62085470f47c1850fc459452d1b5eaf08fae90b8"},
			{RunSpec{Kernel: "sor", Size: kernels.Tiny, Mode: core.ModeDouble, CMPs: 4},
				"f522caa81be0a58912281c516cd795b08634e4f11c8733c2b5e06ff17408da1c"},
			{RunSpec{Kernel: "sor", Size: kernels.Tiny, Mode: core.ModeSlipstream, CMPs: 4,
				TransparentLoads: true, SelfInvalidate: true, AdaptiveARSync: true},
				"960762e73f2520fa24638627d8ab01966f96e53e4768f7bfd2445ca56cf56e43"},
		} {
			check(t, g.sp, false, g.hash)
		}
	})

	// The auditor observes without changing results: an audited run hashes
	// exactly like the unaudited one pinned above.
	t.Run("audited", func(t *testing.T) {
		check(t, slip("SOR", ""), true, goldenKernelResults["SOR"])
	})
}
