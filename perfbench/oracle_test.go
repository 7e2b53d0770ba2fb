package main

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/phash"
	"repro/internal/serve"
)

// Each oracle must reject a corrupted copy of an output it accepts.

func truthOf(m map[string]string) func(string) string { return func(d string) string { return m[d] } }

func TestCampaignOracleRejectsCorruption(t *testing.T) {
	campaignOf := truthOf(map[string]string{
		"a1.xyz": "fake-00", "a2.xyz": "fake-00",
		"b1.top": "registration-00", "b2.top": "registration-00", "c1.win": "registration-01",
	})
	categoryOf := func(c string) string { return c[:len(c)-3] }
	good := []serve.CampaignSummary{
		{Key: "j/0", Domains: []string{"a1.xyz", "a2.xyz"}},
		{Key: "j/1", Domains: []string{"b1.top", "b2.top", "c1.win"}}, // look-alikes of one category
	}
	reached, spanning, err := checkCampaigns(campaignOf, categoryOf, good)
	if err != nil || len(reached) != 3 || spanning != 1 {
		t.Fatalf("good output: reached %v spanning %d err %v", reached, spanning, err)
	}
	if _, err := checkRecall(reached, 3, recallFloorDefault); err != nil {
		t.Fatal(err)
	}

	moved := []serve.CampaignSummary{
		{Key: "j/0", Domains: []string{"a1.xyz", "a2.xyz", "b1.top"}},
		{Key: "j/1", Domains: []string{"b2.top", "c1.win"}},
	}
	if _, _, err := checkCampaigns(campaignOf, categoryOf, moved); err == nil {
		t.Error("a domain moved into another category's campaign was accepted")
	}
	foreign := []serve.CampaignSummary{{Key: "j/0", Domains: []string{"a1.xyz", "news.example"}}}
	if _, _, err := checkCampaigns(campaignOf, categoryOf, foreign); err == nil {
		t.Error("a non-attack domain was accepted")
	}
	dropped, _, err := checkCampaigns(campaignOf, categoryOf, good[:1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkRecall(dropped, 3, recallFloorDefault); err == nil {
		t.Error("recall below the floor was accepted")
	}
}

func TestMilkOraclesRejectCorruption(t *testing.T) {
	if err := checkProbes(38, 38*probesPerSource); err != nil {
		t.Fatal(err)
	}
	if err := checkProbes(38, 38*probesPerSource-1); err == nil {
		t.Error("one missing probe was accepted")
	}
	campaignOf := truthOf(map[string]string{"a1.xyz": "fake-00"})
	events := []serve.ObservationRecord{{E2LD: "pub.example", Source: "crawl"}, {E2LD: "a1.xyz", Source: "milk"}}
	if err := checkMilked(campaignOf, events); err != nil {
		t.Fatal(err)
	}
	events = append(events, serve.ObservationRecord{E2LD: "pub.example", Source: "milk"})
	if err := checkMilked(campaignOf, events); err == nil {
		t.Error("a milked non-attack domain was accepted")
	}
}

// liveFixture is a small log: campaign A (three points within ε of its
// representative), a three-point look-alike group B, two noise points
// and one point within ε of a single A point only (a border point).
func liveFixture() ([]serve.ObservationRecord, []serve.CampaignSummary) {
	a := phash.Hash{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	b := phash.Hash{Hi: ^a.Hi, Lo: a.Lo}
	noise := phash.Hash{Hi: 0x5555555555555555, Lo: 0x0f0f0f0f0f0f0f0f}
	var evs []serve.ObservationRecord
	add := func(h phash.Hash, d string) {
		evs = append(evs, serve.ObservationRecord{Seq: uint64(len(evs) + 1), Hash: h.String(), E2LD: d,
			Tick: time.Unix(int64(len(evs)), 0), Source: "api"})
	}
	add(a, "a0.xyz")
	add(a.FlipBits(1, 2), "a1.xyz")
	add(a.FlipBits(3), "a2.xyz")
	add(a.FlipBits(3), "a2.xyz") // exact re-sighting: not a new point
	// 12 bits from a0 and 13-14 from a1 and a2: a border point of A.
	add(a.FlipBits(20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31), "border.xyz")
	add(b, "b0.top")
	add(b.FlipBits(5), "b1.top")
	add(b.FlipBits(6, 7), "b2.top")
	add(noise, "n0.win")
	add(noise.FlipBits(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20), "n1.win")
	live := []serve.CampaignSummary{{Key: "w/0", RepHash: a.String(), Domains: []string{"a0.xyz", "a1.xyz", "a2.xyz", "border.xyz"}}}
	return evs, live
}

func TestLiveViewOracleRejectsCorruption(t *testing.T) {
	evs, live := liveFixture()
	bf, err := bruteDBSCAN(evs)
	if err != nil {
		t.Fatal(err)
	}
	if bf.clusters != 2 || len(bf.points) != 9 {
		t.Fatalf("brute force: %d clusters over %d points, want 2 over 9", bf.clusters, len(bf.points))
	}
	if err := checkLiveView(bf, 2, live); err != nil {
		t.Fatal(err)
	}
	if err := checkLiveView(bf, 3, live); err == nil {
		t.Error("a wrong live cluster count was accepted")
	}
	dropped := []serve.CampaignSummary{{Key: "w/0", RepHash: live[0].RepHash, Domains: live[0].Domains[1:]}}
	if err := checkLiveView(bf, 2, dropped); err == nil {
		t.Error("a dropped domain was accepted")
	}
	moved := []serve.CampaignSummary{{Key: "w/0", RepHash: live[0].RepHash, Domains: append([]string{"b0.top"}, live[0].Domains...)}}
	if err := checkLiveView(bf, 2, moved); err == nil {
		t.Error("a point moved into the campaign's cluster was accepted")
	}
}

func TestIngestPlanMix(t *testing.T) {
	camp := phash.Hash{Hi: 0xffff, Lo: 0xffff}
	logged := []phash.Hash{
		camp, camp, // a campaign page seen on two domains
		camp.FlipBits(0, 1, 2), // a look-alike 3 bits away
		{Hi: 0xffffffff << 32}, // an isolated page
	}
	p := makeIngestPlan(newRand(7), "world-7-tiny", logged)
	q := makeIngestPlan(newRand(7), "world-7-tiny", logged)
	if fmt.Sprint(p.batches) != fmt.Sprint(q.batches) {
		t.Fatal("the same seed gave different plans")
	}
	total, exact, near, far := 0, 0, 0, 0
	for _, b := range p.batches {
		if len(b) != ingestBatchSize {
			t.Fatalf("batch of %d events, want %d", len(b), ingestBatchSize)
		}
		total += len(b)
		for _, o := range b {
			h, err := phash.ParseHash(o.Hash)
			if err != nil {
				t.Fatal(err)
			}
			// Each event lies as far from some logged page as that page
			// lay from the log before it: the repeated campaign page
			// exactly, 3 bits from the campaign page or its look-alike,
			// or the isolated page's distance from the others.
			switch {
			case h == camp:
				exact++
			case phash.Distance(h, camp) == 3 || phash.Distance(h, logged[2]) == 3:
				near++
			case phash.Distance(h, logged[3]) == phash.Distance(logged[3], logged[2]):
				far++
			default:
				t.Fatalf("event hash %s lies at no logged page's spread", o.Hash)
			}
		}
	}
	if exact == 0 || near == 0 || far == 0 {
		t.Errorf("plan draws %d exact, %d look-alike and %d isolated events; want all three", exact, near, far)
	}
	share := float64(p.resighting) / float64(total)
	if share < shareResight*0.8 || share > shareResight*1.2 {
		t.Errorf("re-sighting share %.3f, want about %.2f", share, shareResight)
	}
}
