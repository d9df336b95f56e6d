// Package baseline implements the comparison point the paper argues against
// (§1, §2): censorship measurement with custom client software (OONI,
// Centinel, CensMon) that requires recruiting volunteers to install and
// maintain probes. The baseline shares the same network and censor substrate
// as Encore, so the two approaches can be compared on vantage-point coverage
// per unit of recruitment effort — the dimension on which the paper claims
// Encore wins — and on per-measurement detail, the dimension on which
// custom-software probes win.
package baseline

import (
	"fmt"
	"sort"

	"encore/internal/censor"
	"encore/internal/geo"
	"encore/internal/netsim"
	"encore/internal/stats"
	"encore/internal/targets"
)

// Volunteer is one recruited probe host.
type Volunteer struct {
	Region geo.CountryCode
	// Probes is how many measurements per day the volunteer's device runs.
	Probes int
}

// RecruitmentModel captures how hard it is to recruit probe hosts in each
// country: volunteers overwhelmingly come from well-connected, low-risk
// countries, which is exactly the coverage problem the paper describes
// ("amassing suitable vantage points for longitudinal measurement is
// difficult").
type RecruitmentModel struct {
	Geo *geo.Registry
	// BaseAcceptRate is the probability a recruitment contact in a
	// non-filtering country yields a volunteer.
	BaseAcceptRate float64
	// FilteringPenalty multiplies the accept rate in countries with known
	// filtering (users there face legal and safety risk installing
	// measurement software).
	FilteringPenalty float64
}

// DefaultRecruitmentModel returns a model with recruitment heavily skewed
// away from filtering countries.
func DefaultRecruitmentModel(g *geo.Registry) RecruitmentModel {
	return RecruitmentModel{Geo: g, BaseAcceptRate: 0.05, FilteringPenalty: 0.15}
}

// Recruit simulates `contacts` recruitment attempts (mailing lists,
// conference calls for volunteers) and returns the volunteers who actually
// install and keep running the software.
func (m RecruitmentModel) Recruit(contacts int, rng *stats.RNG) []Volunteer {
	var out []Volunteer
	for i := 0; i < contacts; i++ {
		region := m.Geo.SampleCountry(rng)
		country, err := m.Geo.Country(region)
		if err != nil {
			continue
		}
		accept := m.BaseAcceptRate
		if country.KnownFilterer {
			accept *= m.FilteringPenalty
		}
		if rng.Bool(accept) {
			out = append(out, Volunteer{Region: region, Probes: 10 + rng.Intn(40)})
		}
	}
	return out
}

// Prober runs direct measurements from volunteers' machines, the way OONI or
// Centinel would. Because the probe software runs outside a browser it
// observes rich detail (DNS answers, TCP behaviour, full HTTP responses);
// the Detail* fields record that advantage.
type Prober struct {
	Net *netsim.Network
}

// Probe is one direct measurement with full client-side visibility.
type Probe struct {
	Region  geo.CountryCode
	URL     string
	Success bool
	// Custom probes see exactly which stage failed and whether a block page
	// was served — detail Encore's browser-side channel cannot provide.
	FailureStage    censor.Stage
	ObservedOutcome netsim.Outcome
}

// ProbeTargets measures every pattern in the list from one volunteer.
func (p *Prober) ProbeTargets(v Volunteer, list *targets.List) []Probe {
	client, err := p.Net.NewClient(v.Region)
	if err != nil {
		return nil
	}
	var out []Probe
	for _, e := range list.Entries() {
		url := e.Pattern.URL()
		res := p.Net.Fetch(client, url, false)
		probe := Probe{
			Region:          v.Region,
			URL:             url,
			Success:         res.Succeeded(),
			ObservedOutcome: res.Outcome,
		}
		if !res.Succeeded() {
			switch res.Outcome {
			case netsim.OutcomeDNSFailure:
				probe.FailureStage = censor.StageDNS
			case netsim.OutcomeConnectFailure, netsim.OutcomeTimeout:
				probe.FailureStage = censor.StageTCP
			default:
				probe.FailureStage = censor.StageHTTP
			}
		}
		out = append(out, probe)
	}
	return out
}

// Coverage summarizes which countries a deployment observes from.
type Coverage struct {
	Countries []geo.CountryCode
	// FilteringCountries counts covered countries with known filtering.
	FilteringCountries int
}

// CoverageOf computes coverage from a set of vantage-point regions.
func CoverageOf(regions []geo.CountryCode, g *geo.Registry) Coverage {
	seen := make(map[geo.CountryCode]bool)
	for _, r := range regions {
		if r != "" {
			seen[r] = true
		}
	}
	filtering := make(map[geo.CountryCode]bool)
	for _, c := range g.FilteringCountries() {
		filtering[c] = true
	}
	var cov Coverage
	for r := range seen {
		cov.Countries = append(cov.Countries, r)
		if filtering[r] {
			cov.FilteringCountries++
		}
	}
	sort.Slice(cov.Countries, func(i, j int) bool { return cov.Countries[i] < cov.Countries[j] })
	return cov
}

// Comparison contrasts Encore's coverage with the direct-prober baseline at a
// given recruitment effort.
type Comparison struct {
	RecruitmentContacts int
	DirectVolunteers    int
	DirectCoverage      Coverage
	EncoreClients       int
	EncoreCoverage      Coverage
}

// String renders the comparison.
func (c Comparison) String() string {
	return fmt.Sprintf("effort=%d contacts: direct probes -> %d volunteers in %d countries (%d filtering); encore -> %d clients in %d countries (%d filtering)",
		c.RecruitmentContacts, c.DirectVolunteers, len(c.DirectCoverage.Countries), c.DirectCoverage.FilteringCountries,
		c.EncoreClients, len(c.EncoreCoverage.Countries), c.EncoreCoverage.FilteringCountries)
}

// Compare contrasts the two approaches at equal recruitment effort. Encore's
// coverage is that of the regions its measurements came from
// (encoreByRegion, measurements per region); the baseline's is that of the
// volunteers DefaultRecruitmentModel yields from contacts attempts.
func Compare(g *geo.Registry, encoreByRegion map[geo.CountryCode]int, encoreClients, contacts int, rng *stats.RNG) Comparison {
	var encoreRegions []geo.CountryCode
	for region := range encoreByRegion {
		encoreRegions = append(encoreRegions, region)
	}
	volunteers := DefaultRecruitmentModel(g).Recruit(contacts, rng)
	directRegions := make([]geo.CountryCode, len(volunteers))
	for i, v := range volunteers {
		directRegions[i] = v.Region
	}
	return Comparison{
		RecruitmentContacts: contacts,
		DirectVolunteers:    len(volunteers),
		DirectCoverage:      CoverageOf(directRegions, g),
		EncoreClients:       encoreClients,
		EncoreCoverage:      CoverageOf(encoreRegions, g),
	}
}
