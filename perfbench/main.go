// Command perfbench is the repository's benchmark. It drives the
// seacma-serve daemon the way its users do, through jobs and
// observation ingest over the HTTP API, checks every output against a
// computation made apart from the program, and prints one JSON result
// line:
//
//	bash perfbench/run.sh --workload discover --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of timed rounds; --trace 1
// reports the per-layer metrics of one traced run. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// oracleError marks an output that failed its check, as opposed to a
// failed operation or a broken harness.
type oracleError struct{ err error }

func (e oracleError) Error() string { return "output check: " + e.err.Error() }
func (e oracleError) Unwrap() error { return e.err }

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "discover, milk or ingest")
	seed := fs.Int64("seed", 1, "input seed (>= 0)")
	seconds := fs.Int("seconds", 30, "how long the timed rounds run")
	trace := fs.Int("trace", 0, "1 = one traced run reporting per-layer metrics")
	serveBin := fs.String("serve", "", "path of the seacma-serve binary")
	workDir := fs.String("work", ".bench_build", "directory for daemon address files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *workload != "discover" && *workload != "milk" && *workload != "ingest" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seed < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || *serveBin == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need --seed >= 0, --seconds >= 1, --trace 0|1 and -serve")
		return 2
	}
	b := &bench{serveBin: *serveBin, workDir: *workDir, seed: *seed}

	var res result
	var err error
	if *trace == 1 {
		res, err = b.traced(*workload)
	} else {
		res, err = b.measure(*workload, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// measure runs whole rounds of the workload until d has passed and
// reports the end-to-end metrics.
func (b *bench) measure(workload string, d time.Duration) (result, error) {
	roundFn := map[string]func(int) (round, error){
		"discover": b.discoverRound, "milk": b.milkRound, "ingest": b.ingestRound,
	}[workload]
	res := result{Correct: true}
	var ok []round
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		r, err := roundFn(i)
		res.Attempted += r.attempted
		res.Failed += r.failed
		switch {
		case err == nil:
			ok = append(ok, r)
		case r.failed > 0:
			fmt.Fprintf(os.Stderr, "round %d: operation failed: %v\n", i, err)
		default:
			return res, fmt.Errorf("round %d: %w", i, err)
		}
		fmt.Fprintf(os.Stderr, "round %d: setup %.3fs run %.3fs cpu %.2fs rss %.0fMB units %.0f\n",
			i, quantile(seconds(r.setups), 0.5), r.run.Seconds(), r.cpu, r.rss, r.units)
	}
	if len(ok) == 0 {
		return res, errors.New("no round completed")
	}
	for i, r := range ok {
		if err := r.check(); err != nil {
			fmt.Fprintf(os.Stderr, "round %d: output check: %v\n", i, err)
			res.Correct = false
		}
	}
	var setup, runS, cpu, rss, lat []float64
	var units, busy float64
	for _, r := range ok {
		setup = append(setup, seconds(r.setups)...)
		runS = append(runS, r.run.Seconds())
		cpu = append(cpu, r.cpu)
		rss = append(rss, r.rss)
		lat = append(lat, millis(r.lat)...)
		units += r.units
		busy += r.run.Seconds()
	}
	res.Metrics = map[string]metric{
		"setup_s":          {quantile(setup, 0.5), "s"},
		"run_s":            {quantile(runS, 0.5), "s"},
		"throughput_per_s": {units / busy, "1/s"},
		"latency_p50_ms":   {quantile(lat, 0.5), "ms"},
		"cpu_s":            {quantile(cpu, 0.5), "s"},
		"peak_rss_mb":      {quantile(rss, 0.5), "MB"},
	}
	return res, nil
}

// traced runs the traced run and reports the per-layer metrics.
func (b *bench) traced(workload string) (result, error) {
	m, r, err := b.traceRun(workload)
	res := result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	var oe oracleError
	if errors.As(err, &oe) {
		fmt.Fprintln(os.Stderr, err)
		res.Correct = false
		return res, nil
	}
	if err != nil {
		return res, err
	}
	res.Metrics = m
	return res, nil
}
