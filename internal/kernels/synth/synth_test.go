package synth

import (
	"reflect"
	"testing"

	"slipstream/internal/core"
)

// presets span the sharing-pattern axes one at a time, so a regression in
// any single access kind fails a named subtest.
var presets = map[string]func(c *Config){
	"defaults":       func(c *Config) {},
	"private":        func(c *Config) { c.PC, c.Mig, c.FS, c.Lock = 0, 0, 0, 0 },
	"producer_chain": func(c *Config) { c.PC, c.WR = 4, 0.5 },
	"migratory":      func(c *Config) { c.Mig = 0.5 },
	"false_sharing":  func(c *Config) { c.FS = 0.4 },
	"lock_heavy":     func(c *Config) { c.Sync, c.Lock = 0.3, 1.0 },
	"barrier_heavy":  func(c *Config) { c.Sync, c.Lock = 0.3, 0.0 },
	"read_only":      func(c *Config) { c.WR = 0 },
	"write_heavy":    func(c *Config) { c.WR = 1 },
}

func tinyConfig(mut func(c *Config)) Config {
	c := Defaults(256, 64)
	mut(&c)
	return c
}

func runSynth(t *testing.T, cfg Config, opts core.Options) *core.Result {
	t.Helper()
	k, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(opts, k)
	if err != nil {
		t.Fatalf("%v/%v: %v", opts.Mode, opts.ARSync, err)
	}
	if res.VerifyErr != nil {
		t.Fatalf("%v/%v: verification: %v", opts.Mode, opts.ARSync, res.VerifyErr)
	}
	return res
}

// Every preset must verify exactly in every execution mode, audited.
func TestPresetsAllModes(t *testing.T) {
	for name, mut := range presets {
		name, mut := name, mut
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := tinyConfig(mut)
			runSynth(t, cfg, core.Options{Mode: core.ModeSequential, Audit: true})
			runSynth(t, cfg, core.Options{Mode: core.ModeSingle, CMPs: 4, Audit: true})
			runSynth(t, cfg, core.Options{Mode: core.ModeDouble, CMPs: 4, Audit: true})
			for _, ar := range core.ARSyncs {
				runSynth(t, cfg, core.Options{Mode: core.ModeSlipstream, CMPs: 4, ARSync: ar, Audit: true})
			}
			runSynth(t, cfg, core.Options{
				Mode: core.ModeSlipstream, CMPs: 4, ARSync: core.OneTokenLocal,
				TransparentLoads: true, SelfInvalidate: true, Audit: true,
			})
		})
	}
}

// Identical parameters must give identical results; a different seed or a
// moved knob must actually change the generated workload.
func TestDeterminismAndSensitivity(t *testing.T) {
	opts := core.Options{Mode: core.ModeSlipstream, CMPs: 4, ARSync: core.OneTokenLocal}
	base := tinyConfig(func(c *Config) {})
	a := runSynth(t, base, opts)
	b := runSynth(t, base, opts)
	if a.Cycles != b.Cycles || a.Mem != b.Mem {
		t.Fatalf("identical configs diverged: %d vs %d cycles", a.Cycles, b.Cycles)
	}
	reseeded := base
	reseeded.Seed = 99
	if c := runSynth(t, reseeded, opts); c.Cycles == a.Cycles && c.Mem == a.Mem {
		t.Error("changing the seed left the run bit-identical")
	}
	contended := base
	contended.Mig = 0.5
	if c := runSynth(t, contended, opts); c.Cycles == a.Cycles {
		t.Error("raising the migratory fraction did not change the cycle count")
	}
}

// Odd task counts stress the producer-consumer wraparound and the
// partition-free layout (every task owns exactly WS words).
func TestVariousCMPCounts(t *testing.T) {
	cfg := tinyConfig(func(c *Config) { c.PC = 3 })
	for _, cmps := range []int{1, 2, 3, 8} {
		runSynth(t, cfg, core.Options{Mode: core.ModeSingle, CMPs: cmps})
	}
	runSynth(t, cfg, core.Options{Mode: core.ModeSlipstream, CMPs: 8, ARSync: core.ZeroTokenGlobal})
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero Config accepted")
	}
	for name, mut := range map[string]func(c *Config){
		"ops_low":   func(c *Config) { c.Ops = 1 },
		"ws_low":    func(c *Config) { c.WS = 2 },
		"mig_high":  func(c *Config) { c.Mig = 1.5 },
		"sync_high": func(c *Config) { c.Sync = 0.9 },
		"crowded":   func(c *Config) { c.Mig, c.FS = 0.6, 0.5 },
	} {
		cfg := tinyConfig(mut)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
	cfg := Defaults(256, 64)
	if err := cfg.Apply(map[string]float64{"mig": 0.3, "seed": 5}); err != nil {
		t.Fatal(err)
	}
	if cfg.Mig != 0.3 || cfg.Seed != 5 {
		t.Errorf("Apply did not set fields: %+v", cfg)
	}
	if err := cfg.Apply(map[string]float64{"nope": 1}); err == nil {
		t.Error("unknown parameter accepted")
	}
	if err := cfg.Apply(map[string]float64{"pc": 1.5}); err == nil {
		t.Error("fractional integer parameter accepted")
	}
	if err := cfg.Apply(map[string]float64{"wr": 2}); err == nil {
		t.Error("out-of-range parameter accepted")
	}
}

func TestSchemaCoversApply(t *testing.T) {
	defs := Schema()
	for i := 1; i < len(defs); i++ {
		if defs[i-1].Name >= defs[i].Name {
			t.Fatalf("schema not sorted: %s before %s", defs[i-1].Name, defs[i].Name)
		}
	}
	cfg := Defaults(256, 64)
	for _, d := range defs {
		v := (d.Min + d.Max) / 2
		if d.Integer {
			v = float64(int64(v))
		}
		if err := cfg.Apply(map[string]float64{d.Name: v}); err != nil {
			// Mid-range values of one knob can violate the cross-field
			// budget only via the documented plain-access floor.
			t.Errorf("Apply(%s=%v): %v", d.Name, v, err)
		}
		cfg = Defaults(256, 64)
	}
}

// The barrier count must track the barrier share of the sync budget and
// never leave the program phase-less.
func TestBarrierBudget(t *testing.T) {
	c := Defaults(1000, 64)
	c.Sync, c.Lock = 0.02, 0.5
	if got := c.barriers(); got != 10 {
		t.Errorf("barriers() = %d, want 10", got)
	}
	c.Sync = 0
	if got := c.barriers(); got != 1 {
		t.Errorf("barriers() with no sync = %d, want 1", got)
	}
}

// TestSchemaReturnsCopy checks that a caller who edits the slice Schema
// returns changes neither the next Schema call nor what Apply accepts.
func TestSchemaReturnsCopy(t *testing.T) {
	defs := Schema()
	want := Schema()
	for i := range defs {
		defs[i] = ParamDef{Name: "edited", Max: -1}
	}
	if got := Schema(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Schema after an edit of its result = %+v, want %+v", got, want)
	}
	cfg := Defaults(256, 64)
	if err := cfg.Apply(map[string]float64{"wr": 0.5}); err != nil {
		t.Fatalf("Apply after an edit of Schema's result: %v", err)
	}
}
