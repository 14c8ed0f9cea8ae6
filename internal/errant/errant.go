// Package errant implements the data-driven network-emulation models the
// paper contributes to the ERRANT emulator (Trevisan et al., Computer
// Networks 2020): per-technology statistical profiles of downlink/uplink
// rate, RTT and loss, fitted from measurement campaigns, that third
// parties can apply to reproduce an access technology without the
// hardware.
//
// Rates and RTTs are modeled log-normally (the standard fit for access
// network measurements). The package fits and exports the profiles; the
// emulator that draws conditions from them is ERRANT itself.
package errant

import (
	"encoding/json"
	"math"
)

// LogNormal parameterizes a log-normal distribution by the mean (Mu) and
// standard deviation (Sigma) of the underlying normal.
type LogNormal struct {
	Mu    float64 `json:"mu"`
	Sigma float64 `json:"sigma"`
}

// Median returns exp(mu).
func (l LogNormal) Median() float64 { return math.Exp(l.Mu) }

// FitLogNormal estimates parameters from positive samples.
func FitLogNormal(samples []float64) LogNormal {
	if len(samples) == 0 {
		return LogNormal{}
	}
	var sum, sum2 float64
	n := 0
	for _, x := range samples {
		if x <= 0 {
			continue
		}
		lx := math.Log(x)
		sum += lx
		sum2 += lx * lx
		n++
	}
	if n == 0 {
		return LogNormal{}
	}
	mu := sum / float64(n)
	varr := sum2/float64(n) - mu*mu
	if varr < 0 {
		varr = 0
	}
	return LogNormal{Mu: mu, Sigma: math.Sqrt(varr)}
}

// Profile is one technology's emulation model.
type Profile struct {
	Name string `json:"name"`
	// DownMbps and UpMbps model the access rates.
	DownMbps LogNormal `json:"down_mbps"`
	UpMbps   LogNormal `json:"up_mbps"`
	// RTTms models the base round-trip time.
	RTTms LogNormal `json:"rtt_ms"`
	// JitterMs is the half-normal per-packet jitter scale.
	JitterMs float64 `json:"jitter_ms"`
	// LossPct is the stationary *medium* packet loss percentage —
	// losses the radio link inflicts independent of congestion (queue
	// overflows emerge from the emulated buffers on top of this). It is
	// applied as a bursty Gilbert-Elliott process (mean burst 4), per
	// the paper's finding that medium losses come in longer bursts.
	LossPct float64 `json:"loss_pct"`
}

// Builtin returns the shipped profiles. The starlink and satcom entries
// are the paper's contribution (fitted from its campaign); 4g and 3g
// come from the MONROE-based numbers the paper compares against
// (download median 29.5 Mbit/s, upload 14 Mbit/s for good-signal 4G);
// wired models the campus baseline.
func Builtin() map[string]Profile {
	return map[string]Profile{
		"starlink": {
			Name:     "starlink",
			DownMbps: LogNormal{Mu: math.Log(178), Sigma: 0.25},
			UpMbps:   LogNormal{Mu: math.Log(17), Sigma: 0.35},
			RTTms:    LogNormal{Mu: math.Log(48), Sigma: 0.18},
			JitterMs: 6,
			LossPct:  0.06,
		},
		"satcom-geo": {
			Name:     "satcom-geo",
			DownMbps: LogNormal{Mu: math.Log(82), Sigma: 0.20},
			UpMbps:   LogNormal{Mu: math.Log(4.5), Sigma: 0.30},
			RTTms:    LogNormal{Mu: math.Log(600), Sigma: 0.05},
			JitterMs: 10,
			LossPct:  0.05,
		},
		"4g": {
			Name:     "4g",
			DownMbps: LogNormal{Mu: math.Log(29.5), Sigma: 0.5},
			UpMbps:   LogNormal{Mu: math.Log(14), Sigma: 0.5},
			RTTms:    LogNormal{Mu: math.Log(45), Sigma: 0.3},
			JitterMs: 8,
			LossPct:  0.1,
		},
		"3g": {
			Name:     "3g",
			DownMbps: LogNormal{Mu: math.Log(5), Sigma: 0.6},
			UpMbps:   LogNormal{Mu: math.Log(2), Sigma: 0.6},
			RTTms:    LogNormal{Mu: math.Log(80), Sigma: 0.35},
			JitterMs: 15,
			LossPct:  0.3,
		},
		"wired": {
			Name:     "wired",
			DownMbps: LogNormal{Mu: math.Log(940), Sigma: 0.05},
			UpMbps:   LogNormal{Mu: math.Log(940), Sigma: 0.05},
			RTTms:    LogNormal{Mu: math.Log(8), Sigma: 0.15},
			JitterMs: 0.5,
			LossPct:  0.01,
		},
	}
}

// Fit builds a profile from campaign samples.
func Fit(name string, downMbps, upMbps, rttMs []float64, jitterMs, lossPct float64) Profile {
	return Profile{
		Name:     name,
		DownMbps: FitLogNormal(downMbps),
		UpMbps:   FitLogNormal(upMbps),
		RTTms:    FitLogNormal(rttMs),
		JitterMs: jitterMs,
		LossPct:  lossPct,
	}
}

// MarshalProfiles renders profiles as the JSON artifact format.
func MarshalProfiles(profiles map[string]Profile) ([]byte, error) {
	return json.MarshalIndent(profiles, "", "  ")
}
