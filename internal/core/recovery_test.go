package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// chronicKernel diverges repeatedly: every round, an A-stream that runs
// ahead reads a stale flag and burns time, forcing multiple recoveries in
// one run.
type chronicKernel struct {
	flag   F64
	out    F64
	rounds int
}

func (k *chronicKernel) Name() string { return "chronic" }
func (k *chronicKernel) Setup(p *Program) {
	k.flag = p.AllocF64(p.NumTasks() * 8)
	k.out = p.AllocF64(p.NumTasks() * 8)
}
func (k *chronicKernel) Task(c *Ctx) {
	me := c.ID() * 8
	acc := 0.0
	for r := 0; r < k.rounds; r++ {
		if int(k.flag.Load(c, me)) != r {
			c.Compute(500000) // stale read: only a deviated A-stream
		}
		acc += float64(r)
		c.Compute(2000)
		c.Compute(2000)
		k.flag.Store(c, me, float64(r+1))
		c.Barrier()
	}
	k.out.Store(c, me, acc)
}
func (k *chronicKernel) Verify(p *Program) error {
	want := float64(k.rounds * (k.rounds - 1) / 2)
	for i := 0; i < p.NumTasks(); i++ {
		if got := k.out.Get(p, i*8); got != want {
			return fmt.Errorf("task %d out = %v, want %v", i, got, want)
		}
	}
	return nil
}

// repeatedRecoveriesHash is the SHA-256 of the Result JSON of
// TestRepeatedRecoveries' run, captured at SimVersion "2". No golden
// kernel spec recovers, so this hash is what pins the cost of a refork
// (forkPenalty).
const repeatedRecoveriesHash = "5e02a425c774c56a47cf890c6d5e026601d106581afbeaf1c217f23d2a2a7ba1"

func TestRepeatedRecoveries(t *testing.T) {
	k := &chronicKernel{rounds: 12}
	res, err := Run(Options{Mode: ModeSlipstream, CMPs: 2, ARSync: OneTokenLocal}, k)
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
	if res.Recoveries < 2 {
		t.Errorf("recoveries = %d, want >= 2 (chronic divergence)", res.Recoveries)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != repeatedRecoveriesHash {
		t.Errorf("result hash %x, want %s", sum, repeatedRecoveriesHash)
	}
	// A-stream breakdowns must cover all incarnations without negative or
	// absurd values.
	for i, bd := range res.ATasks {
		if bd.Busy < 0 || bd.MemStall < 0 || bd.ARSync < 0 {
			t.Errorf("A-task %d breakdown has negative category: %v", i, bd)
		}
	}
}

// onceRecoveryKernel mixes Once with divergence: a reforked A-stream must
// re-consume the recorded Once values during fast-forward and stay aligned.
type onceRecoveryKernel struct {
	flag   F64
	out    I64
	rounds int
}

func (k *onceRecoveryKernel) Name() string { return "once-recovery" }
func (k *onceRecoveryKernel) Setup(p *Program) {
	k.flag = p.AllocF64(p.NumTasks() * 8)
	k.out = p.AllocI64(p.NumTasks() * 8)
}
func (k *onceRecoveryKernel) Task(c *Ctx) {
	me := c.ID() * 8
	var sum int64
	for r := 0; r < k.rounds; r++ {
		v := c.Once(func() int64 { return int64(r * 10) })
		sum += v
		if int(k.flag.Load(c, me)) != r {
			c.Compute(400000)
		}
		c.Compute(3000)
		k.flag.Store(c, me, float64(r+1))
		c.Barrier()
	}
	k.out.Store(c, me, sum)
}
func (k *onceRecoveryKernel) Verify(p *Program) error {
	var want int64
	for r := 0; r < k.rounds; r++ {
		want += int64(r * 10)
	}
	for i := 0; i < p.NumTasks(); i++ {
		if got := k.out.Get(p, i*8); got != want {
			return fmt.Errorf("task %d = %d, want %d", i, got, want)
		}
	}
	return nil
}

func TestOnceSurvivesRecovery(t *testing.T) {
	k := &onceRecoveryKernel{rounds: 8}
	res, err := Run(Options{Mode: ModeSlipstream, CMPs: 2, ARSync: OneTokenLocal}, k)
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
	if res.Recoveries == 0 {
		t.Skip("no recovery triggered; nothing to check")
	}
}

// TestRecoveryWithSelfInvalidation checks recovery under the full Section 4
// feature set.
func TestRecoveryWithSelfInvalidation(t *testing.T) {
	k := &chronicKernel{rounds: 10}
	res, err := Run(Options{
		Mode: ModeSlipstream, CMPs: 2, ARSync: OneTokenLocal,
		TransparentLoads: true, SelfInvalidate: true,
	}, k)
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
}
