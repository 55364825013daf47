// Package profile wires the -cpuprofile and -memprofile flags shared by
// the sweep commands (amexp, amrun, amsearch) to runtime/pprof, so an
// experiment, a scenario spec or a search can be profiled as it is run.
// Profiles go to files; a command's output is unchanged.
package profile

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile paths a command's flags name.
type Flags struct{ cpu, mem string }

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	fs.StringVar(&f.mem, "memprofile", "", "write an allocation profile to this file on exit")
	return f
}

// Start creates the requested profile files and starts the CPU profile.
// The returned stop ends it and writes the allocation profile; call it
// once, before the process exits.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu, mem *os.File
	closeAll := func() {
		for _, file := range []*os.File{cpu, mem} {
			if file != nil {
				file.Close()
			}
		}
	}
	if f.mem != "" {
		if mem, err = os.Create(f.mem); err != nil {
			return nil, err
		}
	}
	if f.cpu != "" {
		if cpu, err = os.Create(f.cpu); err == nil {
			err = pprof.StartCPUProfile(cpu)
		}
		if err != nil {
			closeAll()
			return nil, err
		}
	}
	return func() error {
		defer closeAll()
		if cpu != nil {
			pprof.StopCPUProfile()
		}
		if mem == nil {
			return nil
		}
		runtime.GC() // materialize up-to-date allocation stats
		return pprof.WriteHeapProfile(mem)
	}, nil
}
