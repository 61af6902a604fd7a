// Package synth generates deterministic, parameterized synthetic
// sharing-pattern kernels. Where the nine ported benchmarks are fixed
// points in the space of sharing behaviours, synth spans the axes that
// space pivots on — producer-consumer degree, migratory-sharing
// fraction, false-sharing rate, read/write mix, sync density (barrier
// vs. lock), and working-set size — so experiments can sweep a sharing
// pattern instead of sampling it.
//
// Determinism: a seeded xorshift64* PRNG (kutil.Rand; no global rand) is
// expanded into a fixed per-task access program before any simulated
// time elapses. The program is a pure function of (Config, task id, task
// count), so identical parameters produce identical runs at any -j. All
// shared values are int64 and every concurrent update is a lock-guarded
// commutative add, so the final memory image is exact and
// order-independent — Verify replays the same programs in plain Go and
// compares every word.
//
// The generated program is phase-structured: each phase issues a slice
// of the per-task access budget, then joins a global barrier and swaps
// the double-buffered working set (reads in phase p see values written
// in phase p-1, the same race-free idiom the SOR/OCEAN ports use). Five
// access kinds are drawn per slot:
//
//   - plain read: own block, or — with producer-consumer degree pc > 0 —
//     a block owned by one of the pc preceding tasks (the consumer side
//     of nearest-neighbour production);
//   - plain write: own block of the destination buffer, value mixed from
//     the task's running checksum (so written values flow to next-phase
//     consumers);
//   - false-sharing store: the task's private word of a packed array
//     whose neighbouring words belong to other tasks — per-word private,
//     per-line contended;
//   - migratory RMW: a lock-guarded add to one of a few line-isolated
//     cells, each guarded by its own lock (the line migrates with the
//     lock token);
//   - critical-section RMW: the same add through one global lock (pure
//     serialization pressure).
package synth

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"slipstream/internal/core"
	"slipstream/internal/kernels/kutil"
)

// Cost model (cycles of private compute charged around each access).
const (
	plainCycles = 25 // address arithmetic + ALU work per plain access
	fsCycles    = 15 // false-sharing store slot
	rmwCycles   = 35 // add + compare inside a critical section
)

// Shared-memory layout constants.
const (
	wordsPerLine = 8  // 64-byte lines of 8-byte words
	migCells     = 8  // migratory cells, one line apart
	lockCS       = 63 // the single global critical-section lock
	lockMigBase  = 64 // per-cell migratory locks: lockMigBase + cell
)

// Config fixes one synthetic kernel. The zero value is not runnable; use
// Defaults and Apply, or fill every field and call Validate.
type Config struct {
	Seed uint64  // PRNG seed; programs are pure functions of (Seed, task, tasks)
	Ops  int     // per-task accesses for the whole run
	WS   int     // working-set words owned per task (double-buffered)
	PC   int     // producer-consumer degree: how many preceding tasks this one consumes
	Mig  float64 // fraction of accesses that are migratory lock-guarded RMWs
	FS   float64 // fraction of accesses that are false-sharing stores
	WR   float64 // write fraction of the remaining plain accesses
	Sync float64 // sync density: sync events (barriers + global-lock CSs) per access
	Lock float64 // share of sync events that are global-lock CSs; the rest are barriers
}

// Defaults returns the default configuration at a size preset's access
// and working-set scale (the registry passes per-preset ops/ws).
func Defaults(ops, ws int) Config {
	return Config{Seed: 1, Ops: ops, WS: ws, PC: 1,
		Mig: 0.1, FS: 0.05, WR: 0.35, Sync: 0.02, Lock: 0.5}
}

// ParamDef describes one Apply-able parameter for schema listings.
type ParamDef struct {
	Name     string
	Desc     string
	Min, Max float64
	Integer  bool
}

// Schema lists the accepted parameters in canonical (sorted) order.
// "ops" and "ws" default per size preset; the rest default as in
// Defaults. The slice is the caller's own.
func Schema() []ParamDef { return slices.Clone(schema) }

// schema is the parameter table Schema copies, sorted once: Apply looks up
// every key of every SYNTH spec it parses here.
var schema = func() []ParamDef {
	defs := []ParamDef{
		{Name: "seed", Desc: "PRNG seed expanding the per-task access programs", Min: 0, Max: math.MaxUint32, Integer: true},
		{Name: "ops", Desc: "accesses per task (defaults per size preset)", Min: 32, Max: 1 << 20, Integer: true},
		{Name: "ws", Desc: "working-set words per task (defaults per size preset)", Min: 16, Max: 1 << 20, Integer: true},
		{Name: "pc", Desc: "producer-consumer degree: preceding tasks consumed by reads", Min: 0, Max: 64, Integer: true},
		{Name: "mig", Desc: "migratory fraction: lock-guarded RMWs on line-isolated cells", Min: 0, Max: 1},
		{Name: "fs", Desc: "false-sharing rate: stores to per-task words packed in shared lines", Min: 0, Max: 1},
		{Name: "wr", Desc: "write fraction of plain accesses", Min: 0, Max: 1},
		{Name: "sync", Desc: "sync density: sync events per access (barrier or lock)", Min: 0, Max: 0.5},
		{Name: "lock", Desc: "share of sync events that are global-lock critical sections (rest: barriers)", Min: 0, Max: 1},
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
	return defs
}()

// Apply overrides c from named parameter values (the RunSpec.Params
// map), validating names, ranges, and integrality. Keys are applied in
// sorted order, though application is order-independent.
func (c *Config) Apply(m map[string]float64) error {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := m[k]
		def, ok := findDef(k)
		if !ok {
			return fmt.Errorf("synth: unknown parameter %q (want one of %s)", k, paramNames())
		}
		if v < def.Min || v > def.Max {
			return fmt.Errorf("synth: parameter %s = %v out of range [%v, %v]", k, v, def.Min, def.Max)
		}
		if def.Integer && v != math.Trunc(v) {
			return fmt.Errorf("synth: parameter %s = %v must be an integer", k, v)
		}
		switch k {
		case "seed":
			c.Seed = uint64(v)
		case "ops":
			c.Ops = int(v)
		case "ws":
			c.WS = int(v)
		case "pc":
			c.PC = int(v)
		case "mig":
			c.Mig = v
		case "fs":
			c.FS = v
		case "wr":
			c.WR = v
		case "sync":
			c.Sync = v
		case "lock":
			c.Lock = v
		}
	}
	return c.Validate()
}

func findDef(name string) (ParamDef, bool) {
	for _, d := range schema {
		if d.Name == name {
			return d, true
		}
	}
	return ParamDef{}, false
}

func paramNames() string {
	s := ""
	for i, d := range schema {
		if i > 0 {
			s += ", "
		}
		s += d.Name
	}
	return s
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	for _, chk := range []struct {
		name     string
		v        float64
		min, max float64
	}{
		{"ops", float64(c.Ops), 32, 1 << 20},
		{"ws", float64(c.WS), 16, 1 << 20},
		{"pc", float64(c.PC), 0, 64},
		{"mig", c.Mig, 0, 1},
		{"fs", c.FS, 0, 1},
		{"wr", c.WR, 0, 1},
		{"sync", c.Sync, 0, 0.5},
		{"lock", c.Lock, 0, 1},
	} {
		if chk.v < chk.min || chk.v > chk.max {
			return fmt.Errorf("synth: %s = %v out of range [%v, %v]", chk.name, chk.v, chk.min, chk.max)
		}
	}
	if frac := c.Mig + c.FS + c.Sync*c.Lock; frac > 0.9 {
		return fmt.Errorf("synth: mig + fs + sync*lock = %.3f leaves under 10%% plain accesses (max 0.9)", frac)
	}
	return nil
}

// op is one expanded program slot.
type op struct {
	kind uint8
	idx  int32 // word index (opRead/opWrite) or migratory cell (opMig)
	arg  int64 // store value or RMW delta
}

const (
	opRead  uint8 = iota // load buf[parity][idx] into the checksum
	opWrite              // store mixed checksum to buf[1-parity][idx]
	opFS                 // store arg to the task's false-sharing word
	opMig                // locked += arg on migratory cell idx
	opCS                 // locked += arg on the global counter
)

// Kernel is the generated synthetic workload.
type Kernel struct {
	cfg    Config
	nt     int
	phases int
	prog   [][][]op // [task][phase][]op
	buf    [2]core.I64
	fs     core.I64
	mig    core.I64
	cs     core.I64
	out    core.I64
}

// New returns a synthetic kernel for a validated configuration.
func New(cfg Config) (*Kernel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Kernel{cfg: cfg}, nil
}

// Name implements core.Kernel.
func (k *Kernel) Name() string { return "SYNTH" }

// Config returns the kernel's configuration.
func (k *Kernel) Config() Config { return k.cfg }

// barriers returns the number of barrier-separated phases: the barrier
// share of the sync-event budget, at least one so the double buffer
// exercises at least one hand-off.
func (c Config) barriers() int {
	n := int(math.Round(float64(c.Ops) * c.Sync * (1 - c.Lock)))
	if n < 1 {
		return 1
	}
	if n > c.Ops {
		return c.Ops
	}
	return n
}

// Setup allocates the shared image and expands every task's program.
func (k *Kernel) Setup(p *core.Program) {
	k.nt = p.NumTasks()
	k.phases = k.cfg.barriers()
	k.buf[0] = p.AllocI64(k.nt * k.cfg.WS)
	k.buf[1] = p.AllocI64(k.nt * k.cfg.WS)
	k.fs = p.AllocI64(k.nt)
	k.mig = p.AllocI64(migCells * wordsPerLine)
	k.cs = p.AllocI64(1)
	k.out = p.AllocI64(k.nt)
	initBufs(k.cfg, k.nt, func(i int, v int64) {
		k.buf[0].Set(p, i, v)
		k.buf[1].Set(p, i, v)
	})
	k.prog = make([][][]op, k.nt)
	for id := 0; id < k.nt; id++ {
		k.prog[id] = expand(k.cfg, id, k.nt)
	}
}

// initBufs seeds both working-set buffers identically (phase 0 reads the
// same values whichever buffer is "source" first).
func initBufs(cfg Config, nt int, set func(int, int64)) {
	rnd := kutil.NewRand(cfg.Seed)
	for i := 0; i < nt*cfg.WS; i++ {
		set(i, int64(rnd.Uint64()>>1))
	}
}

// expand derives task id's phase-structured program: a pure function of
// (cfg, id, nt), so every run at these parameters replays it exactly.
func expand(cfg Config, id, nt int) [][]op {
	rnd := kutil.NewRand(cfg.Seed*0x9e3779b97f4a7c15 + uint64(id)*0xbf58476d1ce4e5b9 + 0xd6e8feb86659fd93)
	phases := cfg.barriers()
	pMig := cfg.Mig
	pFS := pMig + cfg.FS
	pCS := pFS + cfg.Sync*cfg.Lock
	prog := make([][]op, phases)
	for ph := 0; ph < phases; ph++ {
		n := cfg.Ops / phases
		if ph < cfg.Ops%phases {
			n++
		}
		ops := make([]op, 0, n)
		for i := 0; i < n; i++ {
			r := rnd.Float64()
			switch {
			case r < pMig:
				ops = append(ops, op{kind: opMig, idx: int32(rnd.Intn(migCells)), arg: int64(1 + rnd.Intn(255))})
			case r < pFS:
				ops = append(ops, op{kind: opFS, arg: int64(rnd.Uint64() >> 8)})
			case r < pCS:
				ops = append(ops, op{kind: opCS, arg: int64(1 + rnd.Intn(255))})
			default:
				if rnd.Float64() < cfg.WR {
					ops = append(ops, op{kind: opWrite,
						idx: int32(id*cfg.WS + rnd.Intn(cfg.WS)),
						arg: int64(rnd.Uint64() >> 8)})
				} else {
					owner := id
					if cfg.PC > 0 {
						owner = ((id-1-rnd.Intn(cfg.PC))%nt + nt) % nt
					}
					ops = append(ops, op{kind: opRead,
						idx: int32(owner*cfg.WS + rnd.Intn(cfg.WS))})
				}
			}
		}
		prog[ph] = ops
	}
	return prog
}

// env abstracts the shared-memory operations so the simulated task and
// the verification replay execute bit-identical integer arithmetic.
type env interface {
	load(b int, i int) int64 // read buffer b (0/1)
	store(b int, i int, v int64)
	fsStore(task int, v int64)
	rmw(cell int, lockID int, delta int64) // lock-guarded add (mig cells; cell<0: global counter)
	compute(cycles int64)
}

// runPhase executes one phase of task id's program against e, threading
// the running checksum. parity selects the source buffer; writes go to
// the other. Shared by Task and Verify.
func runPhase(id int, ops []op, parity int, acc int64, e env) int64 {
	for _, o := range ops {
		switch o.kind {
		case opRead:
			acc += e.load(parity, int(o.idx))
			e.compute(plainCycles)
		case opWrite:
			acc = acc*6364136223846793005 + o.arg
			e.compute(plainCycles)
			e.store(1-parity, int(o.idx), acc)
		case opFS:
			e.compute(fsCycles)
			e.fsStore(id, o.arg)
		case opMig:
			e.rmw(int(o.idx), lockMigBase+int(o.idx), o.arg)
		case opCS:
			e.rmw(-1, lockCS, o.arg)
		}
	}
	return acc
}

// accSeed is each task's checksum start value.
func accSeed(id int) int64 { return int64(id+1) * 0x9e3779b9 }

// simEnv runs the program through the timed task context.
type simEnv struct {
	c *core.Ctx
	k *Kernel
}

func (e simEnv) load(b, i int) int64     { return e.k.buf[b].Load(e.c, i) }
func (e simEnv) store(b, i int, v int64) { e.k.buf[b].Store(e.c, i, v) }
func (e simEnv) fsStore(task int, v int64) {
	e.k.fs.Store(e.c, task, v)
}
func (e simEnv) rmw(cell, lockID int, delta int64) {
	arr, i := e.k.mig, cell*wordsPerLine
	if cell < 0 {
		arr, i = e.k.cs, 0
	}
	e.c.Lock(lockID)
	v := arr.Load(e.c, i)
	e.c.Compute(rmwCycles)
	arr.Store(e.c, i, v+delta)
	e.c.Unlock(lockID)
}
func (e simEnv) compute(cycles int64) { e.c.Compute(cycles) }

// Task runs the SPMD body: the expanded phases with a global barrier and
// a buffer swap between each.
func (k *Kernel) Task(c *core.Ctx) {
	e := env(simEnv{c, k})
	acc := accSeed(c.ID())
	parity := 0
	for _, ops := range k.prog[c.ID()] {
		acc = runPhase(c.ID(), ops, parity, acc, e)
		c.Barrier()
		parity ^= 1
	}
	k.out.Store(c, c.ID(), acc)
}

// refEnv replays the program against plain slices.
type refEnv struct {
	buf [2][]int64
	fs  []int64
	mig []int64
	cs  []int64
}

func (e *refEnv) load(b, i int) int64       { return e.buf[b][i] }
func (e *refEnv) store(b, i int, v int64)   { e.buf[b][i] = v }
func (e *refEnv) fsStore(task int, v int64) { e.fs[task] = v }
func (e *refEnv) compute(int64)             {}
func (e *refEnv) rmw(cell, _ int, delta int64) {
	if cell < 0 {
		e.cs[0] += delta
		return
	}
	e.mig[cell*wordsPerLine] += delta
}

// Verify replays every task's program phase-by-phase in plain Go —
// barrier semantics become the phase loop, and the lock-guarded adds
// commute, so replay order within a phase cannot change the image — and
// compares every shared word exactly.
func (k *Kernel) Verify(p *core.Program) error {
	ref := &refEnv{
		buf: [2][]int64{make([]int64, k.nt*k.cfg.WS), make([]int64, k.nt*k.cfg.WS)},
		fs:  make([]int64, k.nt),
		mig: make([]int64, migCells*wordsPerLine),
		cs:  make([]int64, 1),
	}
	initBufs(k.cfg, k.nt, func(i int, v int64) {
		ref.buf[0][i], ref.buf[1][i] = v, v
	})
	accs := make([]int64, k.nt)
	for id := range accs {
		accs[id] = accSeed(id)
	}
	for ph := 0; ph < k.phases; ph++ {
		for id := 0; id < k.nt; id++ {
			accs[id] = runPhase(id, k.prog[id][ph], ph%2, accs[id], ref)
		}
	}
	for b := 0; b < 2; b++ {
		for i := 0; i < k.nt*k.cfg.WS; i++ {
			if got := k.buf[b].Get(p, i); got != ref.buf[b][i] {
				return fmt.Errorf("synth: buf%d[%d] = %d, want %d", b, i, got, ref.buf[b][i])
			}
		}
	}
	for i := 0; i < k.nt; i++ {
		if got := k.fs.Get(p, i); got != ref.fs[i] {
			return fmt.Errorf("synth: fs[%d] = %d, want %d", i, got, ref.fs[i])
		}
		if got := k.out.Get(p, i); got != accs[i] {
			return fmt.Errorf("synth: out[%d] = %d, want %d", i, got, accs[i])
		}
	}
	for c := 0; c < migCells; c++ {
		if got := k.mig.Get(p, c*wordsPerLine); got != ref.mig[c*wordsPerLine] {
			return fmt.Errorf("synth: mig[%d] = %d, want %d", c, got, ref.mig[c*wordsPerLine])
		}
	}
	if got := k.cs.Get(p, 0); got != ref.cs[0] {
		return fmt.Errorf("synth: cs counter = %d, want %d", got, ref.cs[0])
	}
	return nil
}
