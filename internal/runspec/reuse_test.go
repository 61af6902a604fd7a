package runspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"testing"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
)

// goldenHash runs the golden slipstream spec of one kernel and returns the
// SHA-256 of its Result JSON.
func goldenHash(kernel string) (string, error) {
	sp := RunSpec{
		Kernel: kernel, Size: kernels.Tiny, Mode: core.ModeSlipstream, CMPs: 8,
		TransparentLoads: true, SelfInvalidate: true,
	}
	res, err := sp.Run()
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// TestGoldenResultsUnderFrameReuse checks that runs reusing each other's
// cache frames, directory pages and calendar queues cannot move a result.
// Every run releases its frames, pages and event queue for the next, and
// the golden specs run TL+SI, so every run's SI actions come from its
// pool's records again and again. The specs run in sorted order, then in
// reverse, then from 4 goroutines at once, each starting at a different
// kernel, so later runs take queues and storage that other kernels'
// runs, or runs on other goroutines, handed on; every hash must equal
// goldenKernelResults. TestGoldenResults ranges over a map, so its reuse
// order varies; this order is fixed.
func TestGoldenResultsUnderFrameReuse(t *testing.T) {
	names := make([]string, 0, len(goldenKernelResults))
	for name := range goldenKernelResults {
		names = append(names, name)
	}
	sort.Strings(names)
	check := func(name string) error {
		got, err := goldenHash(name)
		if err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		if want := goldenKernelResults[name]; got != want {
			return fmt.Errorf("%s: result hash %s, want %s", name, got, want)
		}
		return nil
	}

	for _, name := range names {
		if err := check(name); err != nil {
			t.Errorf("sorted order: %v", err)
		}
	}
	for i := len(names) - 1; i >= 0; i-- {
		if err := check(names[i]); err != nil {
			t.Errorf("reverse order: %v", err)
		}
	}

	const workers = 4
	errs := make([][]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := w * len(names) / workers
			for i := range names {
				if err := check(names[(start+i)%len(names)]); err != nil {
					errs[w] = append(errs[w], err)
				}
			}
		}(w)
	}
	wg.Wait()
	for w, es := range errs {
		for _, err := range es {
			t.Errorf("goroutine %d: %v", w, err)
		}
	}
}
