package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/phash"
	"repro/internal/serve"
)

// Every workload runs in rounds. A round starts its own daemon (so no
// round inherits caches, stores or span-log growth from another), sets
// up, runs its timed operations, reads back what the oracles need and
// stops the daemon. Rounds repeat until the run's --seconds are spent;
// then every round's outputs are checked.

// round is what one round measured.
type round struct {
	setups []time.Duration // each set-up: daemon start, world builds, warm-up
	run    time.Duration   // the timed operations
	cpu    float64         // daemon CPU seconds over the timed operations
	rss    float64         // daemon peak resident set, MB
	units  float64         // workload units of work done by the timed operations
	lat    []time.Duration

	attempted, failed int
	// check runs the round's output oracles. Rounds defer it until the
	// run's time is spent, so the oracles' own work does not shorten the
	// measured part of the run.
	check func() error

	// Per-layer figures the traced run reports from the untraced round.
	jobWait, reportFetch time.Duration
	appendLat, readLat   []time.Duration
	reads                int
	report               []byte
}

type bench struct {
	serveBin string
	workDir  string
	seed     int64
}

// roundSeed is what round i draws from the run's --seed: the world of a
// discover round, the ingest plan of an ingest round.
func (b *bench) roundSeed(i int) int64 { return b.seed*1000 + int64(i) + 1 }

// fixedWorld gives round i of a milk or ingest run its world, the same
// whatever the --seed. Their cost per unit of work depends on the world
// (milking cost per probe grows with the new domains a world's
// campaigns mint, ±20 % between worlds; ingest cost with the make-up of
// the crawl log the plan is drawn from), so with seed-drawn worlds the
// spread between runs measured the worlds drawn rather than the
// program. Each round still starts a fresh daemon, to which its world
// is new.
func fixedWorld(i int) int64 { return 1000*int64(i+1) + 1 }

// moreSetUps reports whether round i sets up again after k set-ups
// that took spent in all. The first round of a run sets up at least
// three times and for at least two seconds (at most 40 times), so
// setup_s is a median of several samples even in a one-round run; only
// the last set-up's daemon is kept.
func moreSetUps(i, k int, spent time.Duration) bool {
	if k == 0 {
		return true
	}
	return i == 0 && k < 40 && (k < 3 || spent < 2*time.Second)
}

// timedJob runs one job and fills the round's timed figures from it.
func timedJob(d *daemon, spec serve.JobSpec, r *round) (id string, rep core.Report, err error) {
	st0, err := d.stat()
	if err != nil {
		return "", rep, err
	}
	r.attempted++
	id, raw, jt, err := d.runJob(spec)
	if err != nil {
		r.failed++
		return id, rep, err
	}
	st1, err := d.stat()
	if err != nil {
		return id, rep, err
	}
	r.run = jt.wait + jt.fetch
	r.lat = append(r.lat, r.run)
	r.jobWait, r.reportFetch = jt.wait, jt.fetch
	r.cpu = st1.cpuSec - st0.cpuSec
	r.report = raw
	rep, err = core.ParseReport(bytes.NewReader(raw))
	return id, rep, err
}

// finish reads the daemon's peak RSS and stops it.
func finish(d *daemon, r *round) error {
	defer d.stop()
	st, err := d.stat()
	r.rss = st.peakRSSMB
	return err
}

// discoverRound: one 1/8-scale crawl-and-discover job on a world the
// daemon has not seen. Unit of work: crawl sessions committed.
func (b *bench) discoverRound(i int) (round, error) {
	var r round
	spec := serve.JobSpec{Seed: b.roundSeed(i), SkipMilking: true}
	var d *daemon
	var truth *truthWorld
	var spent time.Duration
	for k := 0; moreSetUps(i, k, spent); k++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(b.serveBin, b.workDir); err != nil {
			return r, err
		}
		truth = buildTruth(spec)
		dt := time.Since(t0)
		r.setups = append(r.setups, dt)
		spent += dt
	}
	defer d.stop()

	id, rep, err := timedJob(d, spec, &r)
	if err != nil {
		return r, err
	}
	r.units = float64(rep.Scalars.CrawlSessions)
	camps, err := d.campaigns(id, "")
	if err != nil {
		return r, err
	}
	events, err := d.events(serve.WorldKey(spec))
	if err != nil {
		return r, err
	}
	if err := finish(d, &r); err != nil {
		return r, err
	}
	r.check = func() error { return checkJob(truth, spec, rep, camps, events) }
	return r, nil
}

// milkSources caps the sources a milk job tracks. Tiny worlds verify
// 30–40 sources; the cap fixes every round's probe count at
// milkSources × 1344 and keeps rounds short.
const milkSources = 8

// milkRound: a tiny world crawled once in set-up, then one job with
// the paper's 14-day milking horizon whose crawl replays from the
// daemon's warm caches. Unit of work: milking probes.
func (b *bench) milkRound(i int) (round, error) {
	var r round
	warm := serve.JobSpec{Seed: fixedWorld(i), Tiny: true, SkipMilking: true}
	spec := serve.JobSpec{Seed: fixedWorld(i), Tiny: true, Days: 14, MaxSources: milkSources}
	var d *daemon
	var truth *truthWorld
	var spent time.Duration
	for k := 0; moreSetUps(i, k, spent); k++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(b.serveBin, b.workDir); err != nil {
			return r, err
		}
		truth = buildTruth(spec)
		if _, _, _, err := d.runJob(warm); err != nil {
			d.stop()
			return r, fmt.Errorf("warm-up job: %w", err)
		}
		dt := time.Since(t0)
		r.setups = append(r.setups, dt)
		spent += dt
	}
	defer d.stop()

	id, rep, err := timedJob(d, spec, &r)
	if err != nil {
		return r, err
	}
	r.units = float64(rep.Scalars.MilkingSessions)
	camps, err := d.campaigns(id, "")
	if err != nil {
		return r, err
	}
	events, err := d.events(serve.WorldKey(spec))
	if err != nil {
		return r, err
	}
	if err := finish(d, &r); err != nil {
		return r, err
	}
	r.check = func() error { return checkJob(truth, spec, rep, camps, events) }
	return r, nil
}

// checkJob runs the ground-truth oracles over one finished job.
func checkJob(truth *truthWorld, spec serve.JobSpec, rep core.Report, camps []serve.CampaignSummary, events []serve.ObservationRecord) error {
	if len(camps) != rep.Scalars.SECampaigns {
		return fmt.Errorf("campaign list has %d entries, report says %d", len(camps), rep.Scalars.SECampaigns)
	}
	// The report is stamped with the world's virtual clock at the end
	// of the job, so no domain was minted later. After milking that
	// clock has also run through the blacklist sweeps, which fetch
	// nothing, so a day past the last logged sighting bounds those jobs.
	until := rep.GeneratedAt
	if !spec.SkipMilking {
		var last time.Time
		for _, ev := range events {
			if ev.Tick.After(last) {
				last = ev.Tick
			}
		}
		if t := last.Add(24 * time.Hour); t.Before(until) {
			until = t
		}
	}
	if err := truth.mintThrough(until); err != nil {
		return err
	}
	reached, spanning, err := checkCampaigns(truth.campaignOf, truth.categoryOf, camps)
	if err != nil {
		return err
	}
	floor := recallFloorDefault
	if spec.Tiny {
		floor = recallFloorTiny
	}
	recall, err := checkRecall(reached, len(truth.w.Campaigns), floor)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "world %d: %d campaigns, recall %.3f, %d spanning look-alike true campaigns\n",
		spec.Seed, len(camps), recall, spanning)
	if err := printLogMix(fmt.Sprintf("world %d log", spec.Seed), events, camps); err != nil {
		return err
	}
	if spec.SkipMilking {
		return nil
	}
	if err := checkProbes(rep.Scalars.MilkingSources, rep.Scalars.MilkingSessions); err != nil {
		return err
	}
	return checkMilked(truth.campaignOf, events)
}

// Ingest volume and the one share of the mix not taken from the
// world's own log. 60 × 500 events grow the store from the tiny crawl
// view to ~26,000 points per round. Exact re-sightings: an observer
// milking a tiny world for 14 days repeats 15–18 % of its sightings
// exactly when the daemon's own milker has watched the same world for
// the default 2 days (README "Ingest traffic"). A re-sighting repeats
// an event of an earlier batch.
const (
	ingestBatches   = 60
	ingestBatchSize = 500
	shareResight    = 0.15
)

// ingestPlan is the generator's output for one round: the batches to
// post and how many of their events are exact re-sightings.
type ingestPlan struct {
	batches    [][]serve.ObservationRequest
	resighting int

	// The set-up crawl log the plan was drawn from, and the campaigns
	// registered on it.
	crawlLog   []serve.ObservationRecord
	crawlCamps []serve.CampaignSummary
}

// makeIngestPlan draws one round's batches from rng by resampling the
// world's crawl log (its logged hashes, in log order). Each new event
// re-sights the page of a logged event chosen uniformly at random on a
// new e2LD, as far from that page as the page itself landed from every
// hash logged before it: a known hash stays exact (0 bits), a
// look-alike moves within ε, an isolated page moves as far as it stood
// from the rest. So the shares of campaign sightings, look-alike groups
// and isolated noise follow the world's own crawl traffic.
func makeIngestPlan(rng *rand.Rand, world string, logged []phash.Hash) ingestPlan {
	// spread[i]: distance from logged[i] to the nearest different hash
	// logged before it, 0 for a hash already logged. The first distinct
	// hash has nothing before it and takes its nearest other hash.
	spread := make([]int, len(logged))
	var distinct []phash.Hash
	seen := map[phash.Hash]bool{}
	nearest := func(h phash.Hash, among []phash.Hash) int {
		best := phash.Bits
		for _, o := range among {
			if o != h {
				best = min(best, phash.Distance(h, o))
			}
		}
		return best
	}
	for i, h := range logged {
		if seen[h] {
			continue
		}
		spread[i] = nearest(h, distinct)
		seen[h] = true
		distinct = append(distinct, h)
	}
	if len(distinct) > 0 {
		first := 0
		for logged[first] != distinct[0] {
			first++
		}
		spread[first] = nearest(distinct[0], distinct)
	}

	var p ingestPlan
	base := time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)
	n := 0
	var posted []serve.ObservationRequest
	for bi := 0; bi < ingestBatches; bi++ {
		batch := make([]serve.ObservationRequest, 0, ingestBatchSize)
		for len(batch) < ingestBatchSize {
			if len(posted) > 0 && rng.Float64() < shareResight {
				batch = append(batch, posted[rng.Intn(len(posted))])
				p.resighting++
				continue
			}
			src := rng.Intn(len(logged))
			h := logged[src].FlipBits(rng.Perm(phash.Bits)[:spread[src]]...)
			n++
			batch = append(batch, serve.ObservationRequest{
				World: world, Hash: h.String(), E2LD: fmt.Sprintf("ing%06d.example", n),
				Tick: base.Add(time.Duration(n) * time.Minute), Source: "api",
			})
		}
		posted = append(posted, batch...)
		p.batches = append(p.batches, batch)
	}
	return p
}

// ingestRound: set-up runs one tiny crawl-and-discover job so the
// world's store holds its crawl view and registered campaigns; then one
// writer posts the plan's batches while one reader cycles the live read
// endpoints. Unit of work: observations posted.
func (b *bench) ingestRound(i int) (round, error) {
	var r round
	spec := serve.JobSpec{Seed: fixedWorld(i), Tiny: true, SkipMilking: true}
	world := serve.WorldKey(spec)
	var d *daemon
	var plan ingestPlan
	var bodies [][]byte
	var spent time.Duration
	for k := 0; moreSetUps(i, k, spent); k++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(b.serveBin, b.workDir); err != nil {
			return r, err
		}
		if plan, bodies, err = ingestSetUp(d, spec, &r, b.roundSeed(i)); err != nil {
			d.stop()
			return r, err
		}
		dt := time.Since(t0)
		r.setups = append(r.setups, dt)
		spent += dt
	}
	defer d.stop()

	st0, err := d.stat()
	if err != nil {
		return r, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reader round
	var readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		readErr = readLoop(d, world, stop, &reader)
	}()
	start := time.Now()
	duplicates := 0
	var writeErr error
	for _, body := range bodies {
		var resp struct {
			Results []struct {
				Duplicate bool `json:"duplicate"`
			} `json:"results"`
		}
		r.attempted++
		t := time.Now()
		if err := d.do("POST", "/v1/observations", body, http.StatusOK, &resp); err != nil {
			r.failed++
			writeErr = err
			break
		}
		r.appendLat = append(r.appendLat, time.Since(t))
		for _, res := range resp.Results {
			if res.Duplicate {
				duplicates++
			}
		}
		r.units += float64(len(resp.Results))
	}
	r.run = time.Since(start)
	close(stop)
	wg.Wait()
	r.attempted += reader.attempted
	r.failed += reader.failed
	r.readLat, r.reads = reader.readLat, reader.reads
	if writeErr != nil {
		return r, writeErr
	}
	if readErr != nil {
		return r, readErr
	}
	st1, err := d.stat()
	if err != nil {
		return r, err
	}
	r.cpu = st1.cpuSec - st0.cpuSec
	r.lat = r.appendLat

	events, err := d.events(world)
	if err != nil {
		return r, err
	}
	var index struct {
		Worlds []struct {
			World        string `json:"world"`
			LiveClusters int    `json:"live_clusters"`
		} `json:"worlds"`
	}
	if err := d.do("GET", "/v1/observations", nil, http.StatusOK, &index); err != nil {
		return r, err
	}
	live, err := d.campaigns("", world)
	if err != nil {
		return r, err
	}
	if err := finish(d, &r); err != nil {
		return r, err
	}
	if len(index.Worlds) != 1 || index.Worlds[0].World != world {
		return r, fmt.Errorf("observation index lists %d worlds, want only %s", len(index.Worlds), world)
	}
	liveClusters := index.Worlds[0].LiveClusters
	r.check = func() error {
		if duplicates != plan.resighting {
			return fmt.Errorf("daemon flagged %d duplicates, the plan re-sighted %d events", duplicates, plan.resighting)
		}
		bf, err := bruteDBSCAN(events)
		if err != nil {
			return err
		}
		if err := checkLiveView(bf, liveClusters, live); err != nil {
			return err
		}
		if err := printLogMix(fmt.Sprintf("world %d crawl log", spec.Seed), plan.crawlLog, plan.crawlCamps); err != nil {
			return err
		}
		return printIngestMix(plan, bf, live)
	}
	return r, nil
}

// mixClassifier sorts hashes by where the brute-force clustering bf
// put them: within ε of a campaign's representative, in a cluster no
// campaign holds, or isolated.
func mixClassifier(bf dbscanResult, camps []serve.CampaignSummary) (func(phash.Hash) int, error) {
	var reps []phash.Hash
	for _, c := range camps {
		h, err := phash.ParseHash(c.RepHash)
		if err != nil {
			return nil, err
		}
		reps = append(reps, h)
	}
	maxBits := int(math.Floor(oracleEps * phash.Bits))
	return func(h phash.Hash) int {
		switch {
		case slices.ContainsFunc(reps, func(r phash.Hash) bool { return phash.Distance(h, r) <= maxBits }):
			return mixNear
		case bf.label[h] >= 0:
			return mixDense
		default:
			return mixIsolated
		}
	}, nil
}

const (
	mixNear = iota
	mixDense
	mixIsolated
	mixResight
)

// printMix prints a traffic mix to standard error. The README's mix
// figures come from these lines.
func printMix(what string, n [4]int) {
	total := n[0] + n[1] + n[2] + n[3]
	pc := func(k int) float64 { return 100 * float64(k) / float64(max(total, 1)) }
	fmt.Fprintf(os.Stderr, "%s, %d events: %.1f%% within ε of a campaign, %.1f%% in other clusters, %.1f%% isolated, %.1f%% exact re-sightings\n",
		what, total, pc(n[mixNear]), pc(n[mixDense]), pc(n[mixIsolated]), pc(n[mixResight]))
}

// printLogMix classifies a world's logged events against their own
// brute-force clustering and the campaigns registered on them. A store
// log holds no exact re-sightings: the store drops them.
func printLogMix(what string, events []serve.ObservationRecord, camps []serve.CampaignSummary) error {
	bf, err := bruteDBSCAN(events)
	if err != nil {
		return err
	}
	class, err := mixClassifier(bf, camps)
	if err != nil {
		return err
	}
	var n [4]int
	for _, ev := range events {
		h, err := phash.ParseHash(ev.Hash)
		if err != nil {
			return err
		}
		n[class(h)]++
	}
	printMix(what, n)
	return nil
}

// printIngestMix classifies the round's posted events against the
// brute-force clustering of the world's final log.
func printIngestMix(plan ingestPlan, bf dbscanResult, live []serve.CampaignSummary) error {
	class, err := mixClassifier(bf, live)
	if err != nil {
		return err
	}
	type tuple struct {
		hash, e2ld string
		tick       time.Time
	}
	seen := map[tuple]bool{}
	var n [4]int
	for _, batch := range plan.batches {
		for _, o := range batch {
			k := tuple{o.Hash, o.E2LD, o.Tick}
			if seen[k] {
				n[mixResight]++
				continue
			}
			seen[k] = true
			h, err := phash.ParseHash(o.Hash)
			if err != nil {
				return err
			}
			n[class(h)]++
		}
	}
	printMix("posted ingest events", n)
	return nil
}

// ingestSetUp runs the set-up job on a fresh daemon, reads back the
// crawl log it wrote to the world's store and draws the round's ingest
// plan from that log.
func ingestSetUp(d *daemon, spec serve.JobSpec, r *round, seed int64) (ingestPlan, [][]byte, error) {
	_, report, jt, err := d.runJob(spec)
	if err != nil {
		return ingestPlan{}, nil, fmt.Errorf("set-up job: %w", err)
	}
	r.jobWait, r.reportFetch, r.report = jt.wait, jt.fetch, report
	world := serve.WorldKey(spec)
	events, err := d.events(world)
	if err != nil {
		return ingestPlan{}, nil, err
	}
	if len(events) == 0 {
		return ingestPlan{}, nil, fmt.Errorf("set-up job logged no observations in %s", world)
	}
	logged := make([]phash.Hash, len(events))
	for k, ev := range events {
		if logged[k], err = phash.ParseHash(ev.Hash); err != nil {
			return ingestPlan{}, nil, err
		}
	}
	camps, err := d.campaigns("", world)
	if err != nil {
		return ingestPlan{}, nil, err
	}
	plan := makeIngestPlan(newRand(seed), world, logged)
	plan.crawlLog, plan.crawlCamps = events, camps
	bodies := make([][]byte, len(plan.batches))
	for k, batch := range plan.batches {
		if bodies[k], err = json.Marshal(batch); err != nil {
			return ingestPlan{}, nil, err
		}
	}
	return plan, bodies, nil
}

// readLoop cycles the live read endpoints until stop closes: the
// world's live campaigns, one page of its observation log (walking the
// log a page per cycle) and the cluster list. It records into its own
// round, which the writer merges once the reader has returned.
func readLoop(d *daemon, world string, stop <-chan struct{}, r *round) error {
	after := 0
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		var page struct {
			Total        int               `json:"total"`
			Observations []json.RawMessage `json:"observations"`
		}
		paths := []string{
			"/v1/campaigns?world=" + world,
			fmt.Sprintf("/v1/observations?world=%s&after=%d&limit=1000", world, after),
			"/v1/clusters",
		}
		for k, path := range paths {
			t := time.Now()
			r.attempted++
			var out any
			if k == 1 {
				out = &page
			}
			if err := d.do("GET", path, nil, http.StatusOK, out); err != nil {
				r.failed++
				return err
			}
			r.readLat = append(r.readLat, time.Since(t))
			r.reads++
		}
		after += 1000
		if after >= page.Total {
			after = 0
		}
	}
}
