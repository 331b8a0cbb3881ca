package perfbench

// The timed harness. It reads the wall clock, which the repository's
// determinism lint forbids outside _test.go files (the same exemption
// the root bench_test.go timing uses), so it is compiled as this
// package's test binary: run.sh builds it with `go test -c` and runs it
// with --workload. Without --workload the binary runs the unit tests,
// so `go test ./...` never runs a workload.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"leodivide"
	"leodivide/internal/obs"
)

var (
	flagWorkload = flag.String("workload", "", "workload to run: paper-cold, simcheck, serve-hot or serve-sweep (empty runs the unit tests)")
	flagSeed     = flag.Int64("seed", 1, "seed for the dataset and the request mix")
	flagSeconds  = flag.Float64("seconds", 10, "seconds the workload measures for")
	flagTrace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	flagChild    = flag.String("child", "", "internal: run one child role (session, setup-simcheck, setup-serve) and exit")
)

func TestMain(m *testing.M) {
	flag.Parse()
	switch {
	case *flagChild != "":
		if err := runChild(*flagChild, *flagSeed, *flagTrace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	case *flagWorkload != "":
		os.Exit(runWorkload(*flagWorkload))
	default:
		os.Exit(m.Run())
	}
}

// workloads maps each workload name to its body. A body measures for
// r.seconds and records metrics, operations and failures on r.
var workloads = map[string]func(ctx context.Context, r *run) error{
	"paper-cold":  paperCold,
	"simcheck":    simCheck,
	"serve-hot":   serveHot,
	"serve-sweep": serveSweep,
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]Reading `json:"metrics"`
}

// run is the state of one workload run.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool

	attempted, failed int64
	problems          []string
	e2e, layers       map[string]Reading
}

// op records one attempted operation; a non-nil err marks it failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problem("operation failed: %v", err)
	}
}

// problem records a failed check or regime guard: the run is not
// correct. Only the first few are printed.
func (r *run) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: "+format+"\n", append([]any{r.workload}, args...)...)
	}
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// guard records a regime guard: ok false means the workload did not
// measure the layer it exists to measure.
func (r *run) guard(ok bool, format string, args ...any) {
	if !ok {
		r.problem("regime guard: "+format, args...)
	}
}

// endToEnd records an end-to-end metric (reported by untraced runs).
func (r *run) endToEnd(name, unit string, v float64) { r.e2e[name] = Reading{v, unit} }

// layer records a per-layer metric (reported by traced runs).
func (r *run) layer(name, unit string, v float64) { r.layers[name] = Reading{v, unit} }

func runWorkload(name string) int {
	body, ok := workloads[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}
	if *flagSeconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	r := &run{
		workload: name,
		seed:     *flagSeed,
		seconds:  time.Duration(*flagSeconds * float64(time.Second)),
		traced:   *flagTrace == 1,
		e2e:      map[string]Reading{},
		layers:   map[string]Reading{},
	}
	ctx := context.Background()
	if err := body(ctx, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	// The untimed golden replay: every run also proves the program
	// still reproduces the committed corpus.
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	replayed, drifted, err := GoldenReplay(ctx, wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: golden replay:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "perfbench: golden replay %d/%d\n", replayed-drifted, replayed)
	r.attempted += int64(replayed)
	r.failed += int64(drifted)
	if replayed == 0 || drifted > 0 {
		r.problem("golden replay: %d of %d drifted", drifted, replayed)
	}

	metrics, err := r.report()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	res := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// report returns the metrics the run prints: every end-to-end metric
// of an untraced run, which must all have been measured and be
// positive, or every per-layer metric of a traced run, where a layer
// the workload does not exercise reads 0.
func (r *run) report() (map[string]Reading, error) {
	if !r.traced {
		out, missing, extra, err := Complete(EndToEnd, r.e2e)
		if err != nil {
			return nil, err
		}
		if len(missing) > 0 || len(extra) > 0 {
			return nil, fmt.Errorf("end-to-end metrics not measured %v, not listed %v", missing, extra)
		}
		for _, m := range EndToEnd {
			if v := out[m.Name].Value; !(v > 0) {
				r.problem("%s = %v, want > 0", m.Name, v)
			}
		}
		return out, nil
	}
	out, idle, extra, err := Complete(Layers, r.layers)
	if err != nil {
		return nil, err
	}
	if len(idle) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: layers idle in this workload, reported as 0: %s\n", r.workload, strings.Join(idle, " "))
	}
	for _, name := range extra {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s = %v %s (not in BENCHMARK.json)\n", r.workload, name, r.layers[name].Value, r.layers[name].Unit)
	}
	return out, nil
}

// runChild runs one child-process role. Children answer on stdout, one
// line per event, so the parent can time each event from its own clock.
func runChild(role string, seed int64, traced bool) error {
	ctx := context.Background()
	switch role {
	case "session":
		return childSession(ctx, seed, traced)
	case "setup-simcheck":
		if _, err := generate(ctx, seed); err != nil {
			return err
		}
		fmt.Println("ready")
		return nil
	case "setup-serve":
		st, err := startServer(ctx, seed)
		if err != nil {
			return err
		}
		fmt.Println("ready")
		return st.stop()
	}
	return fmt.Errorf("unknown child role %q", role)
}

// childRun is a finished child process: when it was spawned, when each
// stdout line arrived, and its peak resident set.
type childRun struct {
	spawned time.Time
	lines   []string
	stamps  []time.Time
	maxRSS  int64 // bytes
}

// spawnChild runs this binary in the given child role and collects its
// stdout lines with arrival times. It returns once the child has exited.
func spawnChild(ctx context.Context, role string, seed int64, traced bool) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	traceFlag := "0"
	if traced {
		traceFlag = "1"
	}
	cmd := exec.CommandContext(ctx, self, "--child", role, "--seed", strconv.FormatInt(seed, 10), "--trace", traceFlag)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	var cr childRun
	cr.spawned = time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		cr.stamps = append(cr.stamps, time.Now())
		cr.lines = append(cr.lines, sc.Text())
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return childRun{}, fmt.Errorf("child %s: %w", role, err)
	}
	if scanErr != nil {
		return childRun{}, fmt.Errorf("child %s stdout: %w", role, scanErr)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.maxRSS = ru.Maxrss * 1024 // Linux reports KiB
	}
	return cr, nil
}

// since returns the time from the child's spawn to its stdout line
// equal to line.
func (cr childRun) since(line string) (time.Duration, error) {
	for i, l := range cr.lines {
		if l == line {
			return cr.stamps[i].Sub(cr.spawned), nil
		}
	}
	return 0, fmt.Errorf("child never printed %q", line)
}

// setupProbes is how many times simcheck and serve-* repeat their set-up
// in fresh processes to report setup_s: a fresh process is the only way
// to pay the cold cost again, because the process-wide grid cache would
// serve a second in-process set-up.
const setupProbes = 7

// probeSetup times the set-up of a workload in setupProbes fresh
// processes and returns the median seconds from spawn to ready.
func probeSetup(ctx context.Context, role string, seed int64) (float64, error) {
	var secs []float64
	for i := 0; i < setupProbes; i++ {
		cr, err := spawnChild(ctx, role, seed, false)
		if err != nil {
			return 0, err
		}
		d, err := cr.since("ready")
		if err != nil {
			return 0, err
		}
		secs = append(secs, d.Seconds())
	}
	return Median(secs), nil
}

// residentBytes returns this process's current resident set (VmRSS).
func residentBytes() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected VmRSS line %q", line)
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc/self/status")
}

// rssEvery is how often the timed phases sample the resident set.
const rssEvery = 10 * time.Millisecond

// rssSampler samples this process's resident set while a timed phase
// runs. The process-lifetime peak (VmHWM) depends on where garbage
// collections happened to fall and moved by a fifth between runs of one
// seed; the median over one-second windows of each window's highest
// sample is the peak the phase holds, and repeats.
type rssSampler struct {
	start time.Time
	stop  chan struct{}
	done  chan struct{}
	at    []time.Duration
	rss   []float64
	err   error
}

// startRSS starts sampling until report is called.
func startRSS() *rssSampler {
	s := &rssSampler{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			b, err := residentBytes()
			if err != nil {
				s.err = err
				return
			}
			s.at, s.rss = append(s.at, time.Since(s.start)), append(s.rss, mb(b))
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// report stops sampling and records peak_rss_mb: the median over the
// phase's one-second windows of the highest sample in each.
func (s *rssSampler) report(r *run) error {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return s.err
	}
	peak, ok := WindowMedian(Windows(s.at, s.rss, time.Second, time.Since(s.start)), func(w []float64) (float64, bool) {
		if len(w) == 0 {
			return 0, false
		}
		return w[len(w)-1], true
	})
	if !ok {
		return errors.New("no resident-set samples")
	}
	r.endToEnd("peak_rss_mb", "MB", peak)
	return nil
}

// mb converts bytes to MiB.
func mb(b int64) float64 { return float64(b) / (1 << 20) }

// trace runs fn with a fresh RecordingCollector installed when on is
// true and returns the spans it recorded (nil when off).
func trace(on bool, fn func()) []*obs.Span {
	if !on {
		fn()
		return nil
	}
	rc := &obs.RecordingCollector{}
	restore := obs.SetCollector(rc)
	fn()
	restore()
	return rc.Spans()
}

// parLayers returns the par pool's counters from a snapshot taken after
// obs.Default.Reset isolated the measured phase.
func parLayers(snap obs.Snapshot) map[string]float64 {
	return map[string]float64{
		"par.sweeps":         float64(snap.Counters["par.sweeps"]),
		"par.tasks":          float64(snap.Counters["par.tasks"]),
		"par.queue_wait_ms":  1000 * snap.Histograms["par.queue_wait.seconds"].Mean(),
		"par.occupancy_mean": snap.Histograms["par.worker.occupancy"].Mean(),
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// gomaxprocs is the client-connection bound for the serve workloads:
// the number of CPUs the benchmark runs on.
var gomaxprocs = runtime.GOMAXPROCS(0)

// generateLayers returns the generation layers of a traced dataset
// generation: gen is the span around it and snap a snapshot taken after
// it, with obs.Default reset just before it.
func generateLayers(tr *Trace, gen *obs.Span, ds *leodivide.Dataset, snap obs.Snapshot) map[string]float64 {
	return map[string]float64{
		"generate.busy_ms":           Ms(gen.Duration),
		"bdc.us_cells.busy_ms":       Ms(TotalDuration(tr.Find(gen, "bdc.us_cells"))),
		"bdc.sample_sites.busy_ms":   Ms(TotalDuration(tr.Find(gen, "bdc.sample_sites"))),
		"gen.assign_incomes.busy_ms": Ms(TotalDuration(tr.Find(gen, "gen.assign_incomes"))),
		"bdc.us_cells.cache_hits":    float64(snap.Counters["bdc.us_cells.cache_hits"]),
		"generate.cells":             float64(ds.NumCells()),
		"generate.locations":         float64(ds.TotalLocations()),
	}
}

// layersFrom records per-layer metrics, each with the unit its name
// implies.
func (r *run) layersFrom(m map[string]float64) {
	for k, v := range m {
		r.layer(k, layerUnit(k), v)
	}
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_bytes"):
		return "B"
	case strings.HasSuffix(name, "ratio"), strings.HasSuffix(name, "_mean"), strings.HasSuffix(name, "coverage"):
		return "ratio"
	}
	return "count"
}
