// Command bench is the repository's regression benchmark: five workloads over
// the public functions of dooc/internal/*, each checked against an oracle,
// each measured twice — untraced for the end-to-end metrics, traced for the
// per-layer ledger. See README.md for what every number means.
//
//	bash bench/run.sh --workload spmv-ooc --seed 1 --seconds 16 --trace 0  # one run, the driver's form
//	bash bench/run.sh                                                      # all workloads, both runs
//	bash bench/run.sh -aa                                                  # twice, compared against the bounds
//	bash bench/run.sh -short                                               # schema + oracle smoke
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all five)")
		seed     = flag.Int64("seed", 1, "drives the matrix pattern, start vectors and job seeds")
		seconds  = flag.Float64("seconds", runSeconds, "length of one measured window")
		trace    = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; -1: both, each in a child process")
		short    = flag.Bool("short", false, "smoke: small inputs, sub-second windows; checks schema and oracles, timings mean nothing")
		aa       = flag.Bool("aa", false, "run the untraced set twice on this binary and fail if any end-to-end metric differs by more than its bound")
		traceOut = flag.String("trace-out", "", "write the traced run's spans as Chrome trace-event JSON (with several workloads, FILE gets a .<workload> suffix)")
		scratch  = flag.String("scratch", "", "directory for staged matrices and journals (default: the system temp dir)")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as declared in spec.go and exit")
	)
	flag.Parse()
	if *short {
		*seconds = shortSeconds
	}
	if *manifest {
		os.Stdout.Write(manifestJSON())
		return
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fatal(fmt.Errorf("GOMAXPROCS %d exceeds nproc %d: the load generator must not use more threads than cores", runtime.GOMAXPROCS(0), runtime.NumCPU()))
	}
	selected := workloads
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		selected = []workloadSpec{*w}
	}
	if *trace == 0 || *trace == 1 {
		if len(selected) != 1 {
			fatal(errors.New("-trace 0|1 runs one workload in this process: name it with -workload"))
		}
		c := &runConfig{
			workload: &selected[0], seed: *seed, seconds: *seconds, traced: *trace == 1,
			short: *short, scratch: *scratch, traceOut: *traceOut,
		}
		runtime.GOMAXPROCS(c.procs())
		os.Exit(runChild(c))
	}
	p := &parent{seed: *seed, seconds: *seconds, short: *short, scratch: *scratch, traceOut: *traceOut, out: os.Stdout}
	fmt.Println(header(*seed))
	if *aa {
		os.Exit(p.runAA(selected))
	}
	os.Exit(p.runAll(selected))
}

// shortSeconds is the window of the -short smoke: long enough for the minimum
// number of units every workload runs, too short to time anything.
const shortSeconds = 0.2

// runLimit bounds one child run; the driver allows 180 s.
const runLimit = 150 * time.Second

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runConfig is what one child process runs: one workload, one of the two runs.
type runConfig struct {
	workload *workloadSpec
	seed     int64
	seconds  float64
	traced   bool
	short    bool
	scratch  string
	traceOut string
	rec      *recorder // nil in the untraced run

	units   atomic.Int64 // units of work completed in the window under way
	peakMB  float64      // VmHWM when the workload's PeakUnits-th unit completed
	peakErr error
}

// unitDone is called by a workload after each unit of work of a window. The
// resident-set high-water mark is read when the PeakUnits-th unit completes,
// not when the window ends: memory that grows with the work done (retained job
// records, ring replicas) would otherwise make peak_rss_mb a measure of how
// many units the machine managed in the window.
func (c *runConfig) unitDone() {
	if c.units.Add(1) == int64(c.workload.PeakUnits) {
		c.peakMB, c.peakErr = peakRSSMB()
	}
}

// procs is the GOMAXPROCS of this run's set-ups and measured windows.
func (c *runConfig) procs() int { return min(c.workload.Procs, machineProcs) }

// result is the last line of a child's standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]reportVal `json:"metrics"`
}

type reportVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runChild runs one workload in this process and prints the human table and
// the result line. The exit code is 0 only when every operation succeeded and
// every answer matched its oracle.
func runChild(c *runConfig) int {
	dir, err := os.MkdirTemp(c.scratch, "dooc-bench-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	c.scratch = dir
	// A run that hangs must still end inside the driver's limit, loudly.
	watchdog := time.AfterFunc(runLimit, func() {
		os.RemoveAll(dir)
		fatal(fmt.Errorf("%s: still running after %v", c.workload.Name, runLimit))
	})
	defer watchdog.Stop()
	var (
		l   *ledger
		att attempts
	)
	if c.traced {
		l, att, err = runTraced(c)
	} else {
		l, att, err = runUntraced(c)
	}
	if err != nil {
		os.RemoveAll(dir)
		fatal(fmt.Errorf("%s: %w", c.workload.Name, err))
	}
	l.print(os.Stdout, c.workload.Name)
	res := result{Correct: att.failed == 0, Attempted: att.attempted, Failed: att.failed, Metrics: l.report()}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// parent runs children and prints what they report.
type parent struct {
	seed     int64
	seconds  float64
	short    bool
	scratch  string
	traceOut string
	out      io.Writer
}

// spawn re-executes this binary for one workload and one run, relays the
// child's human output and parses its result line. A workload gets a process
// of its own so that its memory figure is its own.
func (p *parent) spawn(w *workloadSpec, traced bool, single bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(p.seed, 10),
		"-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64), "-trace", trace}
	if p.short {
		args = append(args, "-short")
	}
	if p.scratch != "" {
		args = append(args, "-scratch", p.scratch)
	}
	if traced && p.traceOut != "" {
		file := p.traceOut
		if !single {
			file += "." + w.Name
		}
		args = append(args, "-trace-out", file)
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	for _, line := range lines[:len(lines)-1] {
		fmt.Fprintln(p.out, line)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v; child: %v)", w.Name, err, runErr)
	}
	return &res, nil
}

// runAll is the default mode: every selected workload, untraced then traced,
// and a JSON summary that claims nothing.
func (p *parent) runAll(selected []workloadSpec) int {
	type pair struct {
		EndToEnd *result `json:"end_to_end"`
		PerLayer *result `json:"per_layer"`
	}
	summary := make(map[string]pair)
	var attempted, failed int
	code := 0
	for i := range selected {
		w := &selected[i]
		var pr pair
		for _, traced := range []bool{false, true} {
			res, err := p.spawn(w, traced, len(selected) == 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
				continue
			}
			attempted += res.Attempted
			failed += res.Failed
			if traced {
				pr.PerLayer = res
			} else {
				pr.EndToEnd = res
			}
		}
		summary[w.Name] = pr
	}
	failRatio := ratio(float64(failed), float64(attempted))
	fmt.Fprintf(p.out, "\nfail_ratio %g (%d failed of %d attempted; an error, a refused submit or a wrong answer is a failure)\n", failRatio, failed, attempted)
	// Claim stays null: this benchmark measures, and the change that defines
	// it claims no gain.
	raw, err := json.Marshal(struct {
		Seed       int64           `json:"seed"`
		Commit     string          `json:"commit"`
		NProc      int             `json:"nproc"`
		GOMAXPROCS int             `json:"gomaxprocs"`
		Go         string          `json:"go"`
		Workloads  map[string]pair `json:"workloads"`
		FailRatio  float64         `json:"fail_ratio"`
		Claim      *string         `json:"claim"`
	}{p.seed, commit(), runtime.NumCPU(), machineProcs, runtime.Version(), summary, failRatio, nil})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(p.out, string(raw))
	if failed > 0 || attempted == 0 {
		code = 1
	}
	return code
}

// runAA runs the untraced set twice back to back and compares every workload x
// end-to-end metric against its bound: the tool that tells "unchanged" from
// "unresolved" when nothing changed but the run.
func (p *parent) runAA(selected []workloadSpec) int {
	// The two runs of a workload are made back to back, not a whole set
	// apart: the machine drifts over minutes, and the comparison should see as
	// little of that as two sets allow.
	sets := [2]map[string]*result{{}, {}}
	for j := range selected {
		w := &selected[j]
		for i := range sets {
			res, err := p.spawn(w, false, true)
			if err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: A/A set %d, %s: failed (%v)\n", i+1, w.Name, err)
				return 1
			}
			sets[i][w.Name] = res
		}
	}
	fmt.Fprintf(p.out, "\nA/A: same binary, same seed, two sets; worse = how much the second set is worse than the first\n")
	fmt.Fprintf(p.out, "%-12s %-12s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
	code := 0
	for _, w := range selected {
		for _, m := range endToEnd {
			a, b := sets[0][w.Name].Metrics[m.Name].Value, sets[1][w.Name].Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := ""
			if math.Abs(worse) > m.Bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Fprintf(p.out, "%-12s %-12s %14.6g %14.6g %+7.1f%% %5.0f%%%s\n", w.Name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
