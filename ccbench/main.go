// Command ccbench is the end-to-end benchmark of the ccserve labeling
// service. It stands up service.NewHandler(service.NewEngine(...)) in
// process, configured as ccserve is with default flags (Workers =
// GOMAXPROCS, per-request threads = GOMAXPROCS/Workers, memory job store,
// info-level text access log), and drives the handler's ServeHTTP with
// closed-loop clients, one goroutine each: a client sends its next request
// only after it has read and checked the previous reply. In-process calls
// measure the program, not the loopback network stack.
//
// Every reply is checked against a reference labeling made with the
// flood-fill labeler before timing starts (see oracle.go). One workload
// runs per process, so peak_rss_mb belongs to that workload.
//
// With --trace 0 the command prints the end-to-end metrics: throughput,
// latency p50/p90, the share of correct answers, peak RSS and set-up time.
// With --trace 1 it runs the workload untraced for half of --seconds, then
// traced for the other half: after each request the client replays the
// request's layer calls (pnm, core, stats, band, contour, stream, service
// engine) from the benchmark's own code, recording one span per call, and
// the spans reduce to the per-layer metrics (see trace.go).
//
// Build and run from the repository root:
//
//	bash ccbench/run.sh --workload big-components --seed 1 --seconds 36 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the machine-readable last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || *seconds > 120 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: ccbench --workload <name> --seed <n> --seconds <1..120> --trace <0|1>")
		return 2
	}
	build, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "ccbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}

	env := readEnv()
	fmt.Fprintf(stdout, "env nproc=%d gomaxprocs=%d go=%s rev=%s llc=%s\n",
		env.nproc, env.gomaxprocs, env.goVersion, env.rev, env.llc)

	genStart := time.Now()
	wl, err := build(*seed)
	if err != nil {
		fmt.Fprintln(stderr, "ccbench:", err)
		return 1
	}
	if wl.clients > env.nproc {
		fmt.Fprintf(stderr, "ccbench: workload %s needs %d closed-loop clients but nproc is %d; refusing to oversubscribe\n",
			wl.name, wl.clients, env.nproc)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s: %d closed-loop client(s), seed %d; inputs and references made in %.2f s\n",
		wl.name, wl.clients, *seed, time.Since(genStart).Seconds())
	fmt.Fprintf(stdout, "workload %s: %s\n", wl.name, wl.why)
	printInputs(stdout, wl, env.llc)

	svc, setup, err := measureSetup(wl)
	if err != nil {
		fmt.Fprintln(stderr, "ccbench: set-up:", err)
		return 1
	}
	defer svc.close()
	fmt.Fprintf(stdout, "setup: %d stand-ups, median %.4f s (samples %s)\n", len(setup), median(setup), fmtSamples(setup))

	dur := time.Duration(*seconds) * time.Second
	var rep report
	if *trace == 0 {
		rep = measureEndToEnd(stdout, svc, wl, dur, median(setup))
	} else {
		rep, err = measureLayers(stdout, svc, wl, dur, *seed, env)
		if err != nil {
			fmt.Fprintln(stderr, "ccbench:", err)
			return 1
		}
	}
	printMetrics(stdout, rep.Metrics)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "ccbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measureEndToEnd runs the untraced closed loop and derives the
// end-to-end metrics from it.
func measureEndToEnd(w io.Writer, svc *service, wl *workload, dur time.Duration, setupS float64) report {
	resetPeakRSS(w)
	res := closedLoop(svc.handler, wl, dur, 0, nil)
	printLoop(w, res)
	if len(res.latMs) < 100 {
		fmt.Fprintf(w, "run: warning: %d samples leave fewer than ten beyond p90; raise --seconds\n", len(res.latMs))
	}
	ok := res.attempted - res.failed
	return report{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics: map[string]metric{
			"throughput_mpx_s": {res.okMpx / res.wall.Seconds(), "Mpx/s"},
			"latency_p50_ms":   {quantile(res.latMs, 0.50), "ms"},
			"latency_p90_ms":   {quantile(res.latMs, 0.90), "ms"},
			"ok_frac":          {float64(ok) / float64(res.attempted), "ratio"},
			"peak_rss_mb":      {peakRSSMiB(), "MiB"},
			"setup_s":          {setupS, "s"},
		},
	}
}

// printLoop prints what a closed-loop run did: counts, sample size, wall
// time and the share of distinct inputs.
func printLoop(w io.Writer, res *loopResult) {
	fmt.Fprintf(w, "run: %d attempted, %d failed (failed_frac %.6f), %d latency samples, wall %.3f s, distinct-input share %.4f\n",
		res.attempted, res.failed, float64(res.failed)/float64(res.attempted), len(res.latMs),
		res.wall.Seconds(), float64(res.distinct)/float64(res.attempted))
	if res.firstErr != nil {
		fmt.Fprintf(w, "run: first wrong answer: %v\n", res.firstErr)
	}
}

// printMetrics prints every metric by name with its unit, sorted by name.
func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-24s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// env is the host the numbers were measured on.
type env struct {
	nproc, gomaxprocs int
	goVersion         string
	rev               string
	llc               string
}

// readEnv records the environment printed with every report. The git
// revision comes from CCBENCH_REV, which run.sh sets; a checkout that is
// not a git repository reports "unknown".
func readEnv() env {
	rev := os.Getenv("CCBENCH_REV")
	if rev == "" {
		rev = "unknown"
	}
	return env{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		rev:        rev,
		llc:        lastLevelCache(),
	}
}

// lastLevelCache reads the size of CPU 0's highest-level cache from sysfs,
// or "unknown".
func lastLevelCache() string {
	best, size := -1, "unknown"
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		sz, err := os.ReadFile(dir + "size")
		if err != nil {
			continue
		}
		var level int
		if _, err := fmt.Sscan(string(lv), &level); err == nil && level > best {
			best, size = level, strings.TrimSpace(string(sz))
		}
	}
	return size
}

// resetPeakRSS resets the process's VmHWM to its current RSS, so that the
// peak read after the run covers the measured window rather than input
// generation and reference labeling. Garbage from set-up is collected and
// returned to the OS first.
func resetPeakRSS(w io.Writer) {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets the peak resident set size (Linux 4.0+).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(w, "rss: cannot reset the peak (%v); peak_rss_mb includes set-up\n", err)
	}
}

// peakRSSMiB returns the process's VmHWM in MiB, or 0 if it is unreadable.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// fmtSamples renders seconds with four decimals for the set-up line.
func fmtSamples(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
