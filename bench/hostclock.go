package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hostClock separates the time the program ran from the time the hypervisor
// gave its virtual CPUs to another tenant. The sandbox is a few vCPUs of a
// shared host: in its busy phases, which last minutes, more than half of a
// run's wall time is stolen (the "steal" column of /proc/stat), and every wall
// time of that run doubles. A user of the program on a machine of their own
// sees wall time without steal, so that is what the untraced run reports: each
// timed interval is scaled by the share of the process's runnable time it was
// actually given, cpu / (cpu + steal), both read over that interval.
//
// A sampler goroutine records (time, process CPU time, machine steal time)
// twenty times a second; an interval's readings are interpolated between
// samples, so units shorter than the kernel's 10 ms steal resolution, and the
// overlapping units of concurrent clients, get the correction of their
// neighbourhood. With no steal the factor is exactly 1.
type hostClock struct {
	mu      sync.Mutex
	samples []hostSample
	stop    chan struct{}
	done    chan struct{}
}

type hostSample struct {
	at    time.Time
	cpu   time.Duration // user + system time of this process, all threads
	steal time.Duration // the machine's stolen time, all vCPUs
}

// hostClockPeriod is the sampler's. A reading costs tens of microseconds.
const hostClockPeriod = 50 * time.Millisecond

func startHostClock() *hostClock {
	h := &hostClock{stop: make(chan struct{}), done: make(chan struct{})}
	h.mark()
	go func() {
		defer close(h.done)
		t := time.NewTicker(hostClockPeriod)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.mark()
			}
		}
	}()
	return h
}

// close stops the sampler after a last sample.
func (h *hostClock) close() {
	close(h.stop)
	<-h.done
	h.mark()
}

// mark takes a sample now.
func (h *hostClock) mark() {
	s := hostSample{at: time.Now(), cpu: processCPU(), steal: machineSteal()}
	h.mu.Lock()
	h.samples = append(h.samples, s)
	h.mu.Unlock()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// machineSteal reads the steal column of the first line of /proc/stat, in the
// kernel's 10 ms units. Where there is none (no hypervisor, not Linux) it is 0
// and every factor is 1.
func machineSteal() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// at interpolates the cumulative readings at time t; before the first sample
// and after the last it holds their values.
func (h *hostClock) at(t time.Time) (cpu, steal float64) {
	s := h.samples
	i := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(t) })
	switch {
	case i == 0:
		return float64(s[0].cpu), float64(s[0].steal)
	case i == len(s):
		return float64(s[i-1].cpu), float64(s[i-1].steal)
	}
	a, b := s[i-1], s[i]
	w := float64(t.Sub(a.at)) / float64(b.at.Sub(a.at))
	return float64(a.cpu) + w*float64(b.cpu-a.cpu), float64(a.steal) + w*float64(b.steal-a.steal)
}

// given is the share of its runnable time the process was given between from
// and to: 1 on a machine of one's own.
func (h *hostClock) given(from, to time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	c0, s0 := h.at(from)
	c1, s1 := h.at(to)
	cpu, steal := c1-c0, s1-s0
	if steal <= 0 || cpu+steal <= 0 {
		return 1
	}
	return cpu / (cpu + steal)
}
