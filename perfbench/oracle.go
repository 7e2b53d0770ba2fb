package main

// Output oracles. Each one checks the daemon's output against a
// computation made apart from the measurement pipeline: the world
// generator's own ground truth (worldgen.Truth) for discover and milk,
// a brute-force O(n²) DBSCAN for ingest.

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"time"

	"repro/internal/phash"
	"repro/internal/serve"
	"repro/internal/urlx"
	"repro/internal/webtx"
	"repro/internal/worldgen"
)

// Recall floors: the lowest share of a world's true campaigns a job
// must report, by world scale. Over 60 tiny worlds recall ranged
// 0.60–1.00 (README "Output checks"); 1/8-scale worlds read 0.91–0.94.
const (
	recallFloorTiny    = 0.50
	recallFloorDefault = 0.80
)

// Paper parameters the oracles are written against, restated here
// rather than read from the program.
const (
	oracleEps       = 0.1 // DBSCAN ε as a share of the 128 hash bits
	oracleMinPts    = 3
	milkHorizon     = 14 * 24 * time.Hour
	milkInterval    = 15 * time.Minute
	probesPerSource = int(milkHorizon / milkInterval)
)

// truthWorld is the benchmark's own build of a job's world. Campaigns
// mint attack domains lazily, when their traffic-distribution host is
// asked, so mintThrough first walks every rotation epoch to record each
// domain a run could have reached.
type truthWorld struct {
	w *worldgen.World
}

func buildTruth(spec serve.JobSpec) *truthWorld {
	w := worldgen.Build(serve.SpecExperimentConfig(spec).World)
	w.Internet.SetLogging(false)
	return &truthWorld{w: w}
}

// mintThrough asks each campaign's traffic-distribution host for every
// attack-domain slot of every rotation epoch that starts by until. A
// slot is drawn per request second, so each epoch is asked at
// successive seconds until all its slots have answered.
func (t *truthWorld) mintThrough(until time.Time) error {
	start := t.w.Clock.Now() // campaigns start their rotation at build time
	for _, c := range t.w.Campaigns {
		var ua webtx.UserAgent
		for _, u := range webtx.AllUserAgents {
			if c.Targets(u) {
				ua = u
				break
			}
		}
		entry, err := urlx.Parse(c.EntryURL())
		if err != nil {
			return fmt.Errorf("campaign %s entry: %w", c.ID, err)
		}
		end := until
		if c.Cfg.Lifetime > 0 && start.Add(c.Cfg.Lifetime).Before(end) {
			end = start.Add(c.Cfg.Lifetime)
		}
		for epoch := start; !epoch.After(end); epoch = epoch.Add(c.Cfg.RotationPeriod) {
			seen := map[string]bool{}
			for s := 0; s < 512 && len(seen) < c.Cfg.Slots; s++ {
				at := epoch.Add(time.Duration(s) * time.Second)
				if at.After(end) {
					break
				}
				resp, err := t.w.Internet.RoundTrip(&webtx.Request{URL: entry, UserAgent: ua, ClientIP: webtx.IPResidential, Time: at})
				if err != nil {
					return fmt.Errorf("campaign %s: %w", c.ID, err)
				}
				if loc, err := urlx.Parse(resp.Location); err == nil && resp.Location != "" {
					seen[loc.Host] = true
				}
			}
		}
	}
	return nil
}

// campaignOf maps a domain to its true campaign ("" for any domain no
// campaign minted).
func (t *truthWorld) campaignOf(domain string) string {
	return t.w.Truth.CampaignOfAttackDomain(domain)
}

// categoryOf names a true campaign's SE category.
func (t *truthWorld) categoryOf(campaign string) string {
	cat, _ := t.w.Truth.CategoryOfCampaign(campaign)
	return cat.Key()
}

// checkCampaigns verifies that every domain of every reported SE
// campaign is a true attack domain and that each reported campaign's
// domains belong to one true campaign, or to look-alike true campaigns
// of one category: two campaigns of one category can draw templates
// that render within ε of each other, and then one cluster holds both.
// It returns the true campaigns reached and how many reported campaigns
// span more than one.
func checkCampaigns(campaignOf, categoryOf func(string) string, reported []serve.CampaignSummary) (reached map[string]bool, spanning int, err error) {
	reached = map[string]bool{}
	for _, c := range reported {
		if len(c.Domains) == 0 {
			return nil, 0, fmt.Errorf("campaign %s reports no domains", c.Key)
		}
		owners := map[string]bool{}
		category := ""
		for _, d := range c.Domains {
			tc := campaignOf(d)
			if tc == "" {
				return nil, 0, fmt.Errorf("campaign %s: %s is not an attack domain", c.Key, d)
			}
			if cat := categoryOf(tc); category == "" {
				category = cat
			} else if cat != category {
				return nil, 0, fmt.Errorf("campaign %s mixes true campaigns of categories %s and %s (%s)", c.Key, category, cat, d)
			}
			owners[tc] = true
			reached[tc] = true
		}
		if len(owners) > 1 {
			spanning++
		}
	}
	return reached, spanning, nil
}

// checkRecall requires the reported campaigns to reach at least floor
// of the world's true campaigns.
func checkRecall(reached map[string]bool, trueCampaigns int, floor float64) (float64, error) {
	r := float64(len(reached)) / float64(trueCampaigns)
	if r < floor {
		return r, fmt.Errorf("campaign recall %.3f (%d of %d) below floor %.2f", r, len(reached), trueCampaigns, floor)
	}
	return r, nil
}

// checkMilked requires every milked domain (the e2LD of each milk
// sighting in the world's log) to be a true attack domain, and at least
// one to exist.
func checkMilked(campaignOf func(string) string, events []serve.ObservationRecord) error {
	milked := 0
	for _, ev := range events {
		if ev.Source != "milk" {
			continue
		}
		if campaignOf(ev.E2LD) == "" {
			return fmt.Errorf("milked domain %s is not an attack domain", ev.E2LD)
		}
		milked++
	}
	if milked == 0 {
		return fmt.Errorf("no milked domains")
	}
	return nil
}

// checkProbes requires one probe per verified source per milking
// interval over the horizon.
func checkProbes(sources, probes int) error {
	if sources == 0 {
		return fmt.Errorf("no verified milking sources")
	}
	if want := sources * probesPerSource; probes != want {
		return fmt.Errorf("milking probes %d, want %d sources × %d = %d", probes, sources, probesPerSource, want)
	}
	return nil
}

// dbscanResult is the brute-force clustering of a world's live view:
// one label per distinct hash (-1 = noise) and the cluster count.
type dbscanResult struct {
	label    map[phash.Hash]int
	clusters int
	points   []oraclePoint
}

type oraclePoint struct {
	hash phash.Hash
	e2ld string
}

// bruteDBSCAN clusters the distinct (hash, e2LD) points of an event log
// in arrival order with textbook DBSCAN, comparing every pair of
// distinct hashes. Points sharing a hash share a neighbourhood, so the
// pass runs over distinct hashes weighted by their point counts.
// Clusters are seeded in order of their first core point and a border
// point joins the first cluster that reaches it.
func bruteDBSCAN(events []serve.ObservationRecord) (dbscanResult, error) {
	maxBits := int(math.Floor(oracleEps * 128)) // d/128 <= ε
	seenPt := map[oraclePoint]bool{}
	var pts []oraclePoint
	hid := map[phash.Hash]int{}
	var hashes []phash.Hash
	var members []int
	for _, ev := range events {
		h, err := phash.ParseHash(ev.Hash)
		if err != nil {
			return dbscanResult{}, err
		}
		p := oraclePoint{h, ev.E2LD}
		if seenPt[p] {
			continue
		}
		seenPt[p] = true
		pts = append(pts, p)
		i, ok := hid[h]
		if !ok {
			i = len(hashes)
			hid[h] = i
			hashes = append(hashes, h)
			members = append(members, 0)
		}
		members[i]++
	}
	n := len(hashes)
	adj := make([][]int32, n)
	count := append([]int(nil), members...)
	for i := 0; i < n; i++ {
		a := hashes[i]
		for j := i + 1; j < n; j++ {
			b := hashes[j]
			if bits.OnesCount64(a.Hi^b.Hi)+bits.OnesCount64(a.Lo^b.Lo) <= maxBits {
				adj[i] = append(adj[i], int32(j))
				adj[j] = append(adj[j], int32(i))
				count[i] += members[j]
				count[j] += members[i]
			}
		}
	}
	label := make([]int, n)
	for i := range label {
		label[i] = -2 // unvisited
	}
	clusters := 0
	for _, p := range pts {
		i := hid[p.hash]
		if label[i] != -2 || count[i] < oracleMinPts {
			continue
		}
		id := clusters
		clusters++
		label[i] = id
		queue := []int{i}
		for len(queue) > 0 {
			g := queue[0]
			queue = queue[1:]
			for _, nb := range adj[g] {
				if label[nb] != -2 {
					continue
				}
				label[nb] = id
				if count[nb] >= oracleMinPts {
					queue = append(queue, int(nb))
				}
			}
		}
	}
	out := dbscanResult{label: make(map[phash.Hash]int, n), clusters: clusters, points: pts}
	for i, h := range hashes {
		l := label[i]
		if l == -2 {
			l = -1
		}
		out.label[h] = l
	}
	return out, nil
}

// checkLiveView compares the daemon's live clustering of a world with
// the brute-force one: the live cluster count, and each registered
// campaign's domain set (the distinct e2LDs of the cluster holding its
// representative hash).
func checkLiveView(bf dbscanResult, liveClusters int, live []serve.CampaignSummary) error {
	if liveClusters != bf.clusters {
		return fmt.Errorf("live clusters %d, brute-force DBSCAN %d", liveClusters, bf.clusters)
	}
	domains := map[int]map[string]bool{}
	for _, p := range bf.points {
		l := bf.label[p.hash]
		if l < 0 {
			continue
		}
		if domains[l] == nil {
			domains[l] = map[string]bool{}
		}
		domains[l][p.e2ld] = true
	}
	for _, c := range live {
		rep, err := phash.ParseHash(c.RepHash)
		if err != nil {
			return fmt.Errorf("campaign %s: %w", c.Key, err)
		}
		l, ok := bf.label[rep]
		if !ok || l < 0 {
			return fmt.Errorf("campaign %s: representative %s is not clustered by brute force", c.Key, c.RepHash)
		}
		want := make([]string, 0, len(domains[l]))
		for d := range domains[l] {
			want = append(want, d)
		}
		sort.Strings(want)
		got := append([]string(nil), c.Domains...)
		sort.Strings(got)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			return fmt.Errorf("campaign %s: %d domains, brute-force cluster has %d", c.Key, len(got), len(want))
		}
	}
	return nil
}
