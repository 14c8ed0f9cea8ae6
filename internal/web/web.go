// Package web models the paper's browsing experiments: a corpus of
// websites with realistic object/domain/size statistics, an HTTP-over-TCP
// fetch engine driven through the emulated network, and the two
// QoE-correlated metrics the paper reports — onLoad (all objects
// downloaded) and SpeedIndex (byte-weighted visual completeness).
//
// Page statistics follow the web-measurement literature for the 2021-22
// web: ~70 objects and ~15 contacted domains per page in the median, a
// median page weight around 2 MB, and heavy-tailed object sizes.
package web

import (
	"time"

	"starlinkperf/internal/sim"
)

// Object is one page resource.
type Object struct {
	// Domain indexes the site's domain list.
	Domain int
	// Size is the transfer size in bytes.
	Size int
	// AboveFold marks resources that contribute to the visible
	// viewport (SpeedIndex weighting).
	AboveFold bool
	// Proc is the server processing time for this object.
	Proc time.Duration
	// CPU is the client-side parse/execute cost, consumed serially on
	// the browser main thread.
	CPU time.Duration
	// DependsOn holds the index of an earlier object that must finish
	// before this one is discovered (CSS→font, JS→XHR chains); -1 for
	// resources visible in the HTML.
	DependsOn int
}

// Site is one website of the corpus.
type Site struct {
	Rank     int
	HTMLSize int
	// Domains is how many distinct hosts serve the page (the paper
	// observes ~15 connections per visit).
	Domains int
	Objects []Object
}

// GenerateCorpus builds n sites with statistics drawn from rng. The same
// rng seed yields the same corpus, so campaigns are reproducible.
func GenerateCorpus(rng *sim.RNG, n int) []Site {
	sites := make([]Site, n)
	for i := range sites {
		sites[i] = generateSite(rng, i+1)
	}
	return sites
}

func generateSite(rng *sim.RNG, rank int) Site {
	// Object count: log-normal, median ~80, clipped to [10, 260].
	nObj := int(rng.LogNormal(4.38, 0.5))
	nObj = clamp(nObj, 10, 260)
	// Domains: log-normal, median ~14, clipped to [2, 32], never more
	// than the object count.
	nDom := clamp(int(rng.LogNormal(2.64, 0.45)), 2, 32)
	if nDom > nObj {
		nDom = nObj
	}
	site := Site{
		Rank: rank,
		// HTML: log-normal, median ~90 kB.
		HTMLSize: clamp(int(rng.LogNormal(11.4, 0.7)), 8_000, 900_000),
		Domains:  nDom,
		Objects:  make([]Object, 0, nObj),
	}
	// Above-fold resources: the first ~80% of objects in discovery
	// order contribute to the viewport's visual completeness.
	aboveFold := nObj * 80 / 100
	for j := 0; j < nObj; j++ {
		// Object sizes: log-normal, median ~14 kB, heavy tail.
		size := clamp(int(rng.LogNormal(9.55, 1.2)), 200, 4<<20)
		dom := 0
		if j > 0 {
			// First object after HTML tends to come from the origin;
			// the rest spread over the domains with a bias to the
			// origin and the first CDN.
			r := rng.Float64()
			switch {
			case r < 0.35:
				dom = 0
			case r < 0.55 && nDom > 1:
				dom = 1
			default:
				dom = rng.IntN(nDom)
			}
		}
		dep := -1
		// ~25% of later resources are discovered only after an earlier
		// one executes (script- and stylesheet-driven chains); the rest
		// of the long tail is discovered progressively as the parser
		// works through the document (a rolling window of ~12).
		if j >= 8 && rng.Float64() < 0.25 {
			dep = j - 4 - rng.IntN(4)
		} else if j >= 16 {
			dep = j - 12
		}
		site.Objects = append(site.Objects, Object{
			Domain:    dom,
			Size:      size,
			AboveFold: j < aboveFold,
			Proc:      time.Duration(2+rng.IntN(18)) * time.Millisecond,
			CPU:       time.Duration(6+rng.IntN(15)) * time.Millisecond,
			DependsOn: dep,
		})
	}
	return site
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// VisitResult carries the QoE metrics of one page visit.
type VisitResult struct {
	Site *Site
	// OnLoad is the time from navigation start until every object has
	// been downloaded (the browser's onLoad event).
	OnLoad time.Duration
	// SpeedIndex approximates Google's metric: the byte-weighted mean
	// completion time of above-fold content.
	SpeedIndex time.Duration
	// Connections is how many TCP connections the visit opened.
	Connections int
	// ConnSetupTimes holds the TCP+TLS establishment time of each.
	ConnSetupTimes []time.Duration
	// Failed marks visits that did not complete before the deadline.
	Failed bool
}

// MeanSetup returns the average connection setup time of the visit.
func (v VisitResult) MeanSetup() time.Duration {
	if len(v.ConnSetupTimes) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range v.ConnSetupTimes {
		sum += d
	}
	return sum / time.Duration(len(v.ConnSetupTimes))
}
