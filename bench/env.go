package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// cacheSizes reads cpu0's cache hierarchy from sysfs, e.g. "L1d 48K, L2 2048K,
// L3 266240K (shared by 0-1)". The L3 of a cloud sandbox is a host cache
// shared with other tenants, so both levels are printed and neither is taken
// as the size a working set must exceed.
func cacheSizes() string {
	var parts []string
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		read := func(f string) string {
			b, _ := os.ReadFile(dir + f) // absent on non-Linux hosts: reported as unknown below
			return strings.TrimSpace(string(b))
		}
		level, typ, size := read("level"), read("type"), read("size")
		if level == "" || typ == "Instruction" {
			continue
		}
		s := "L" + level
		if typ == "Data" {
			s += "d"
		}
		s += " " + size
		if shared := read("shared_cpu_list"); strings.ContainsAny(shared, ",-") {
			s += " (shared by " + shared + ")"
		}
		parts = append(parts, s)
	}
	if len(parts) == 0 {
		return "unknown"
	}
	return strings.Join(parts, ", ")
}

// commit names the code under test when the benchmark runs inside a git
// checkout; the driver's checkouts are plain directories.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func header(seed int64) string {
	procs := ""
	for _, w := range workloads {
		procs += fmt.Sprintf(" %s=%d", w.Name, min(w.Procs, machineProcs))
	}
	return fmt.Sprintf("seed %d  commit %s  nproc %d  %s  caches: %s\nGOMAXPROCS of set-up and measured windows:%s; of the wide window and the probes: %d",
		seed, commit(), runtime.NumCPU(), runtime.Version(), cacheSizes(), procs, machineProcs)
}

// resetPeakRSS restarts the kernel's high-water mark of this process's
// resident set (VmHWM), so that the mark read after the measured window is the
// window's own: generation and the oracle are the benchmark's memory, not the
// program's. A poller would see the same peak but costs the engine a tenth of
// its speed on two busy cores; the kernel's mark costs nothing.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM in MB (1e6 bytes).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
