package outfile

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestEmptyPathsWriteNothing(t *testing.T) {
	stop, err := CPUProfile("")
	if err != nil {
		t.Fatal(err)
	}
	write, err := MemProfile("")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Error(err)
	}
	if err := write(); err != nil {
		t.Error(err)
	}
}

func TestProfilesAndExportsLandInFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem, out := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof"), filepath.Join(dir, "out.txt")
	stop, err := CPUProfile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	write, err := MemProfile(mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := write(); err != nil {
		t.Fatal(err)
	}
	if err := Write(out, func(w io.Writer) error { _, err := io.WriteString(w, "ok\n"); return err }); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem, out} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written (%v)", path, err)
		}
	}
}

func TestUncreatableFilesFail(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "x.pprof")
	if _, err := CPUProfile(bad); err == nil {
		t.Errorf("CPUProfile(%q) succeeded", bad)
	}
	if _, err := MemProfile(bad); err == nil {
		t.Errorf("MemProfile(%q) succeeded", bad)
	}
	if err := Write(bad, func(io.Writer) error { return nil }); err == nil {
		t.Errorf("Write(%q) succeeded", bad)
	}
}
