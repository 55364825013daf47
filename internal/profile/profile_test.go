package profile

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesBothProfiles: the flags name two files, Start creates
// them and stop fills them; with no flags set Start and stop do nothing.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("%s: not written (%v)", path, err)
		}
	}

	none := Register(flag.NewFlagSet("none", flag.ContinueOnError))
	stop, err = none.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartRejectsBadPath: an unwritable path fails before the run.
func TestStartRejectsBadPath(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	bad := filepath.Join(t.TempDir(), "missing", "cpu.out")
	if err := fs.Parse([]string{"-cpuprofile", bad}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Start(); err == nil {
		t.Fatal("Start accepted a path in a missing directory")
	}
}
