package errant

import (
	"encoding/json"
	"math"
	"testing"

	"starlinkperf/internal/sim"
)

func TestFitLogNormalRecoversParameters(t *testing.T) {
	rng := sim.NewRNG(1).Stream("fit")
	truth := LogNormal{Mu: math.Log(178), Sigma: 0.25}
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = rng.LogNormal(truth.Mu, truth.Sigma)
	}
	fit := FitLogNormal(samples)
	if math.Abs(fit.Mu-truth.Mu) > 0.02 {
		t.Errorf("mu = %v, want %v", fit.Mu, truth.Mu)
	}
	if math.Abs(fit.Sigma-truth.Sigma) > 0.02 {
		t.Errorf("sigma = %v, want %v", fit.Sigma, truth.Sigma)
	}
}

func TestFitLogNormalEdgeCases(t *testing.T) {
	if f := FitLogNormal(nil); f.Mu != 0 || f.Sigma != 0 {
		t.Error("empty fit should be zero")
	}
	if f := FitLogNormal([]float64{-1, 0}); f.Mu != 0 {
		t.Error("non-positive samples must be ignored")
	}
	f := FitLogNormal([]float64{100})
	if f.Sigma != 0 || math.Abs(f.Median()-100) > 1e-9 {
		t.Errorf("single-sample fit = %+v", f)
	}
}

func TestBuiltinProfilesSane(t *testing.T) {
	profiles := Builtin()
	for _, name := range []string{"starlink", "satcom-geo", "4g", "3g", "wired"} {
		p, ok := profiles[name]
		if !ok {
			t.Fatalf("missing profile %q", name)
		}
		for _, d := range []LogNormal{p.DownMbps, p.UpMbps, p.RTTms} {
			if d.Median() <= 0 || d.Sigma <= 0 {
				t.Errorf("%s: degenerate distribution %+v", name, d)
			}
		}
	}
	// Ordering facts the paper reports.
	if profiles["starlink"].DownMbps.Median() <= profiles["satcom-geo"].DownMbps.Median() {
		t.Error("starlink download median must exceed satcom")
	}
	if profiles["starlink"].RTTms.Median() >= profiles["satcom-geo"].RTTms.Median()/5 {
		t.Error("starlink RTT must be far below GEO satcom")
	}
	if profiles["4g"].UpMbps.Median() < profiles["starlink"].UpMbps.Median()*0.5 {
		t.Error("4G upload should be comparable to starlink's (paper: 14 vs 17)")
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	in := Builtin()
	data, err := MarshalProfiles(in)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]Profile
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("profiles = %d, want %d", len(out), len(in))
	}
	for k, p := range in {
		if out[k] != p {
			t.Errorf("%s: %+v != %+v", k, out[k], p)
		}
	}
}
