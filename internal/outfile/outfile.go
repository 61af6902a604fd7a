// Package outfile writes the files the command-line tools produce on
// request: rendered exports, and CPU and allocation profiles. Each command
// prefixes the errors with its own name and flag.
package outfile

import (
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// Write creates path and streams render into it.
func Write(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CPUProfile starts a CPU profile written to path, unless path is empty,
// and returns the function that stops it.
func CPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
		return nil
	}, nil
}

// MemProfile creates path for an allocation profile, unless path is
// empty, and returns the function that writes the allocs profile of
// everything the process has allocated so far into it.
func MemProfile(path string) (write func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return func() error {
		runtime.GC() // the profile is current as of the last completed GC
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return nil
	}, nil
}
