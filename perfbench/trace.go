package main

// The traced run. It measures one untraced daemon round of the
// workload (for the serve.* figures and the untraced run_s), then
// drives the same worlds in this process through the public stage
// functions one after another, timing each call from outside and
// reading the program's own work counters. Spans are kept by the
// benchmark, around its calls; nothing inside the program changes.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/campstore"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/obs"
	"repro/internal/phash"
	"repro/internal/screenshot"
	"repro/internal/serve"
	"repro/internal/urlx"
	"repro/internal/webtx"
)

// usage is a point-in-time reading of this process's CPU time, Go
// heap allocation and GC CPU time.
type usage struct {
	wall     time.Time
	cpu      float64
	allocB   float64
	gcCPUSec float64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return usage{
		wall:     time.Now(),
		cpu:      float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9,
		allocB:   float64(s[0].Value.Uint64()),
		gcCPUSec: s[1].Value.Float64(),
	}
}

// since returns wall seconds, CPU seconds, allocated MB and GC CPU
// seconds spent since u.
func (u usage) since() (wall, cpu, allocMB, gcCPU float64) {
	n := readUsage()
	return n.wall.Sub(u.wall).Seconds(), n.cpu - u.cpu, (n.allocB - u.allocB) / (1 << 20), n.gcCPUSec - u.gcCPUSec
}

// layerMetrics collects per-layer figures by name.
type layerMetrics map[string]metric

func (m layerMetrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// chainResult is what one traced stage chain produced.
type chainResult struct {
	report []byte
	wall   float64
	store  *campstore.Store
	exp    *seacma.Experiment
}

// tracedChain runs one job spec through the public stage functions on
// the owner's shared caches and world store, exactly as the daemon's
// job runner would, recording each stage into m.
func tracedChain(ctx context.Context, owner *serve.PipelineOwner, spec serve.JobSpec, m layerMetrics) (chainResult, error) {
	reg := owner.Obs
	total := readUsage()
	capHits0, capMiss0, _ := owner.Capture.Stats()
	planeHits0, planeMiss0, _, _ := owner.Capture.NoisePlanes().Stats()
	parseHits0 := reg.CounterValue("script_parse_hits_total")
	parseMiss0 := reg.CounterValue("script_parse_misses_total")
	dist0 := reg.CounterValue("discovery_distance_calls_total")
	webtx0 := reg.SumCounters("webtx_requests_total")

	cfg := serve.SpecExperimentConfig(spec)
	cfg.Obs, cfg.Capture, cfg.Scripts = reg, owner.Capture, owner.Scripts
	cfg.Campaigns = owner.StoreFor(spec)
	u := readUsage()
	exp := seacma.NewExperiment(cfg)
	wall, _, _, _ := u.since()
	m.set("worldgen.build_s", "s", wall)
	p := exp.Pipeline

	run := &core.RunResult{}
	run.PublisherHosts, run.NetworksByHost = p.Reverse()

	// The crawl farm, built as the pipeline builds it, so its session
	// stream can be timed event by event.
	inst, res := core.GroupPublishers(run.NetworksByHost, p.Cfg.Seeds)
	var tasks []crawler.Task
	for _, h := range inst.Hosts {
		tasks = append(tasks, crawler.Task{Host: h, ClientIP: inst.ClientIP})
	}
	for _, h := range res.Hosts {
		tasks = append(tasks, crawler.Task{Host: h, ClientIP: res.ClientIP})
	}
	ccfg := p.Cfg.Crawler
	ccfg.Obs, ccfg.Capture, ccfg.Scripts = reg, p.Cfg.Capture, p.Cfg.Scripts
	farm := crawler.New(p.Internet, p.Clock, ccfg)
	u = readUsage()
	events, n := farm.CrawlStream(ctx, tasks)
	run.Sessions = make([]*crawler.Session, n)
	var gaps []float64
	last := time.Now()
	for ev := range events {
		now := time.Now()
		gaps = append(gaps, now.Sub(last).Seconds()*1e3)
		last = now
		run.Sessions[ev.Index] = ev.Session
	}
	wall, cpu, alloc, _ := u.since()
	m.set("crawler.crawl_s", "s", wall)
	m.set("crawler.crawl_cpu_s", "s", cpu)
	m.set("crawler.alloc_mb", "MB", alloc)
	m.set("crawler.sessions", "count", float64(len(gaps)))
	m.set("crawler.session_p50_ms", "ms", quantile(gaps, 0.50))
	m.set("crawler.session_p99_ms", "ms", quantile(gaps, 0.99))
	m.set("webtx.requests", "count", float64(reg.SumCounters("webtx_requests_total")-webtx0))
	if err := ctx.Err(); err != nil {
		return chainResult{}, err
	}

	u = readUsage()
	disc, err := p.Discover(run.Sessions)
	if err != nil {
		return chainResult{}, fmt.Errorf("discover: %w", err)
	}
	wall, _, _, _ = u.since()
	run.Discovery = disc
	m.set("core.discover_s", "s", wall)
	m.set("cluster.distance_calls", "count", float64(reg.CounterValue("discovery_distance_calls_total")-dist0))
	m.set("campstore.points", "count", float64(cfg.Campaigns.Points()))
	m.set("core.campaigns", "count", float64(len(disc.Campaigns())))

	u = readUsage()
	run.Attributions = p.Attribute(run.Sessions)
	wall, _, _, _ = u.since()
	m.set("core.attribute_s", "s", wall)

	// Milking stages. A skip_milking job never calls them, so their
	// figures read 0 on discover and ingest.
	var verifyS, milkS, milkCPU float64
	var cands, verified, probes, newDomains int
	stall0 := reg.CounterValue("milker_probe_stall_ns_total")
	commit0 := reg.CounterValue("milker_commit_stall_ns_total")
	polls0 := reg.CounterValue("milker_gsb_polls_total")
	if !spec.SkipMilking {
		c := core.ExtractMilkingSources(run.Sessions, disc)
		mcfg := p.Cfg.Milker
		mcfg.Obs, mcfg.Campaigns, mcfg.Capture, mcfg.Scripts = reg, disc.Store, p.Cfg.Capture, p.Cfg.Scripts
		milker := core.NewMilker(p.Internet, p.Clock, p.GSB, p.VT, mcfg)
		u = readUsage()
		run.Sources = milker.VerifySources(c)
		verifyS, _, _, _ = u.since()
		u = readUsage()
		run.Milking, err = milker.RunContext(ctx, run.Sources)
		milkS, milkCPU, _, _ = u.since()
		milker.Close()
		if err != nil {
			return chainResult{}, fmt.Errorf("milk: %w", err)
		}
		cands, verified = len(c), len(run.Sources)
		probes, newDomains = run.Milking.Sessions, len(run.Milking.Domains)
	}
	m.set("core.verify_s", "s", verifyS)
	m.set("milker.candidates", "count", float64(cands))
	m.set("milker.verified", "count", float64(verified))
	m.set("core.milk_s", "s", milkS)
	m.set("core.milk_cpu_s", "s", milkCPU)
	m.set("milker.probes", "count", float64(probes))
	m.set("milker.new_domains", "count", float64(newDomains))
	m.set("milker.probe_stall_s", "s", float64(reg.CounterValue("milker_probe_stall_ns_total")-stall0)/1e9)
	m.set("milker.commit_stall_s", "s", float64(reg.CounterValue("milker_commit_stall_ns_total")-commit0)/1e9)
	m.set("gsb.polls", "count", float64(reg.CounterValue("milker_gsb_polls_total")-polls0))

	rep := core.BuildReport(run, core.PatternSetFromSeeds(p.Cfg.Seeds), p.GSB, p.Webcat, p.Clock.Now())
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return chainResult{}, err
	}
	wall, _, allocMB, gcCPU := total.since()
	capHits, capMiss, _ := owner.Capture.Stats()
	planeHits, planeMiss, _, _ := owner.Capture.NoisePlanes().Stats()
	m.set("screenshot.capture_hits", "count", float64(capHits-capHits0))
	m.set("screenshot.capture_misses", "count", float64(capMiss-capMiss0))
	m.set("imaging.noise_plane_hits", "count", float64(planeHits-planeHits0))
	m.set("imaging.noise_plane_misses", "count", float64(planeMiss-planeMiss0))
	m.set("adscript.parse_hits", "count", float64(reg.CounterValue("script_parse_hits_total")-parseHits0))
	m.set("adscript.parse_misses", "count", float64(reg.CounterValue("script_parse_misses_total")-parseMiss0))
	m.set("go.alloc_mb", "MB", allocMB)
	m.set("go.gc_cpu_s", "s", gcCPU)
	return chainResult{report: buf.Bytes(), wall: wall, store: cfg.Campaigns, exp: exp}, nil
}

// coldHashMicros is the median time of a direct fused dual-grid hash
// of a publisher page raster from exp's world, each call with a fresh noise seed
// and no noise-plane cache (the cold-capture kernel).
func coldHashMicros(exp *seacma.Experiment) (float64, error) {
	pub := exp.World.Publishers[0]
	u, err := urlx.Parse("http://" + pub.Host + "/")
	if err != nil {
		return 0, err
	}
	resp, err := exp.World.Internet.RoundTrip(&webtx.Request{URL: u, UserAgent: webtx.UAChromeMac, Time: exp.World.Clock.Now()})
	if err != nil {
		return 0, err
	}
	if resp.Doc == nil || resp.Doc.Root == nil {
		return 0, fmt.Errorf("publisher %s served no document", pub.Host)
	}
	// The crawler captures at a quarter of the document's size; a
	// private capture cache renders the noise-free raster.
	img := screenshot.NewCache(0, nil).Image(resp.Doc, screenshot.Options{Width: resp.Doc.Root.W / 4, Height: resp.Doc.Root.H / 4})
	var samples []float64
	var sink phash.Hash
	for i := 0; i < 400; i++ {
		t := time.Now()
		h := phash.DHashNoisyCached(img, 2, uint64(i)*0x9e3779b97f4a7c15+1, nil)
		samples = append(samples, float64(time.Since(t).Nanoseconds())/1e3)
		sink.Hi ^= h.Hi
	}
	runtime.KeepAlive(sink)
	return quantile(samples, 0.5), nil
}

// storeTranches measures direct Store.AppendBatch calls: the tranches
// are appended to a store holding base (the world's crawl view and its
// registered campaigns), once with no reader and once with a reader
// cycling LiveCampaigns, Stats and Events beside the writer. It returns
// the wall seconds of the pass with the reader on.
func storeTranches(base []campstore.Event, camps []campstore.Campaign, tranches [][]campstore.Event, m layerMetrics) (float64, error) {
	fresh := func() (*campstore.Store, error) {
		st := campstore.New(campstore.Config{Obs: obs.New()})
		if len(base) > 0 {
			if _, err := st.AppendBatch(base); err != nil {
				return nil, err
			}
		}
		for _, c := range camps {
			if err := st.RegisterCampaign(c); err != nil {
				return nil, err
			}
		}
		return st, nil
	}
	appendAll := func(st *campstore.Store) ([]float64, float64, error) {
		var lat []float64
		start := time.Now()
		for _, tr := range tranches {
			t := time.Now()
			if _, err := st.AppendBatch(tr); err != nil {
				return nil, 0, err
			}
			lat = append(lat, time.Since(t).Seconds()*1e3)
		}
		return lat, time.Since(start).Seconds(), nil
	}

	st, err := fresh()
	if err != nil {
		return 0, err
	}
	d0 := st.DistanceCalls()
	lat, offS, err := appendAll(st)
	if err != nil {
		return 0, err
	}
	m.set("campstore.append_p50_ms", "ms", quantile(lat, 0.50))
	m.set("campstore.append_p99_ms", "ms", quantile(lat, 0.99))
	tenth := (len(lat) + 9) / 10
	m.set("campstore.append_growth", "ratio", mean(lat[len(lat)-tenth:])/mean(lat[:tenth]))
	m.set("campstore.distance_calls", "count", float64(st.DistanceCalls()-d0))
	m.set("campstore.live_clusters", "count", float64(st.Stats().LiveClusters))

	st, err = fresh()
	if err != nil {
		return 0, err
	}
	stop := make(chan struct{})
	var reads []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		after := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			t := time.Now()
			_ = st.LiveCampaigns()
			stats := st.Stats()
			_ = st.Events(after, 1000)
			reads = append(reads, float64(time.Since(t).Nanoseconds())/1e3)
			if after += 1000; after >= uint64(stats.Events) {
				after = 0
			}
		}
	}()
	_, onS, err := appendAll(st)
	close(stop)
	wg.Wait()
	if err != nil {
		return 0, err
	}
	m.set("campstore.read_us", "us", quantile(reads, 0.5))
	m.set("campstore.writer_slowdown", "ratio", offS/onS)
	return onS, nil
}

// toEvents converts logged store events back to appendable ones.
func toEvents(logged []campstore.LoggedEvent) []campstore.Event {
	out := make([]campstore.Event, len(logged))
	for i, ev := range logged {
		out[i] = ev.Event
	}
	return out
}

// split cuts events into tranches of size n.
func split(events []campstore.Event, n int) [][]campstore.Event {
	var out [][]campstore.Event
	for len(events) > 0 {
		k := min(n, len(events))
		out = append(out, events[:k])
		events = events[k:]
	}
	return out
}

// traceRun is the --trace 1 run of one workload.
func (b *bench) traceRun(workload string) (layerMetrics, round, error) {
	m := layerMetrics{}
	roundFn := map[string]func(int) (round, error){
		"discover": b.discoverRound, "milk": b.milkRound, "ingest": b.ingestRound,
	}[workload]
	r, err := roundFn(0)
	if err != nil {
		return nil, r, fmt.Errorf("untraced round: %w", err)
	}
	if err := r.check(); err != nil {
		return nil, r, oracleError{err}
	}
	m.set("serve.append_p50_ms", "ms", quantile(millis(r.appendLat), 0.5))
	m.set("serve.read_p50_ms", "ms", quantile(millis(r.readLat), 0.5))
	m.set("serve.reads_per_s", "1/s", float64(r.reads)/r.run.Seconds())
	m.set("serve.job_wait_ms", "ms", r.jobWait.Seconds()*1e3)
	m.set("serve.report_fetch_ms", "ms", r.reportFetch.Seconds()*1e3)

	ctx := context.Background()
	owner := serve.NewPipelineOwner(obs.New())
	var spec serve.JobSpec
	switch workload {
	case "discover":
		spec = serve.JobSpec{Seed: b.roundSeed(0), SkipMilking: true}
	case "milk":
		// The set-up crawl fills the shared caches and the world store
		// before the timed job, as in the untraced round.
		ws := fixedWorld(0)
		if _, err := tracedChain(ctx, owner, serve.JobSpec{Seed: ws, Tiny: true, SkipMilking: true}, layerMetrics{}); err != nil {
			return nil, r, err
		}
		spec = serve.JobSpec{Seed: ws, Tiny: true, Days: 14, MaxSources: milkSources}
	case "ingest":
		spec = serve.JobSpec{Seed: fixedWorld(0), Tiny: true, SkipMilking: true}
	}
	cr, err := tracedChain(ctx, owner, spec, m)
	if err != nil {
		return nil, r, err
	}
	if r.report == nil {
		return nil, r, fmt.Errorf("the untraced round kept no job report to compare the traced chain with")
	}
	if sha256.Sum256(cr.report) != sha256.Sum256(r.report) {
		return nil, r, oracleError{fmt.Errorf("traced chain report differs from the daemon job's report")}
	}
	fmt.Fprintln(os.Stderr, "traced chain report is byte-identical to the daemon job's report")

	us, err := coldHashMicros(cr.exp)
	if err != nil {
		return nil, r, err
	}
	m.set("phash.cold_hash_us", "us", us)

	// The traced counterpart of the round's timed operations: the job's
	// stage chain, or for ingest the direct appends with the reader on.
	traced := cr.wall
	logged := toEvents(cr.store.Events(0, 0))
	var camps []campstore.Campaign
	for _, cv := range cr.store.LiveCampaigns() {
		camps = append(camps, cv.Campaign)
	}
	if workload == "ingest" {
		// The round's own ingest plan, drawn from the same crawl view.
		hashes := make([]phash.Hash, len(logged))
		for i, ev := range logged {
			hashes[i] = ev.Hash
		}
		plan := makeIngestPlan(newRand(b.roundSeed(0)), serve.WorldKey(spec), hashes)
		var tranches [][]campstore.Event
		for _, batch := range plan.batches {
			tr := make([]campstore.Event, len(batch))
			for i, o := range batch {
				h, err := phash.ParseHash(o.Hash)
				if err != nil {
					return nil, r, err
				}
				tr[i] = campstore.Event{Hash: h, E2LD: o.E2LD, Tick: o.Tick, Source: o.Source}
			}
			tranches = append(tranches, tr)
		}
		traced, err = storeTranches(logged, camps, tranches, m)
	} else {
		// The workload's own event log, replayed in tranches.
		_, err = storeTranches(nil, nil, split(logged, ingestBatchSize), m)
	}
	if err != nil {
		return nil, r, err
	}
	m.set("trace.total_s", "s", traced)
	m.set("trace.untraced_run_s", "s", r.run.Seconds())
	fmt.Fprintf(os.Stderr, "traced total %.3f s beside untraced run_s %.3f s (%+.1f%%)\n",
		traced, r.run.Seconds(), 100*(traced/r.run.Seconds()-1))
	return m, r, nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() * 1e3
	}
	return out
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
