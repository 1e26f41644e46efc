package run

import (
	"context"
	"strings"
	"testing"

	"hcperf/internal/scenario"
)

func TestNormalizeValidation(t *testing.T) {
	tests := []struct {
		name    string
		give    Request
		wantErr string
	}{
		{name: "neither", give: Request{}, wantErr: "exactly one"},
		{name: "both", give: Request{Experiment: "fig5", Scenario: "carfollow"}, wantErr: "exactly one"},
		{name: "unknown experiment", give: Request{Experiment: "fig99"}, wantErr: "unknown experiment"},
		{name: "unknown scenario", give: Request{Scenario: "flying"}, wantErr: "unknown scenario"},
		{name: "unknown scheme", give: Request{Scenario: "carfollow", Scheme: "fifo"}, wantErr: "unknown scheme"},
		{name: "negative duration", give: Request{Scenario: "carfollow", Duration: -1}, wantErr: "duration"},
		{name: "sub-step duration", give: Request{Scenario: "carfollow", Duration: 0.005}, wantErr: "the minimum is 0.01 s"},
		{name: "sub-step spec", give: Request{Spec: &scenario.Spec{Scenario: "lanekeep", Duration: 0.005}}, wantErr: "the minimum is 0.01 s"},
		{name: "sub-step fleet spec", give: Request{Spec: &scenario.Spec{Scenario: "carfollow", Duration: 0.005,
			Fleet: &scenario.FleetSpec{N: 2}}}, wantErr: "the minimum is 0.01 s"},
		{name: "one step ok", give: Request{Scenario: "carfollow", Duration: 0.01}},
		{name: "experiment ok", give: Request{Experiment: "fig5"}},
		{name: "scenario ok", give: Request{Scenario: "lanekeep", Scheme: "edf-vd", Duration: 5, Trace: true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := tt.give.Normalize()
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("Normalize: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Normalize err = %v, want containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestDigestCanonicalization(t *testing.T) {
	norm := func(r Request) Request {
		t.Helper()
		out, err := r.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// Defaults are canonical: seed 0 and seed 1 are the same request, and
	// scenario-only fields cannot split the experiment cache.
	a := norm(Request{Experiment: "fig5"})
	b := norm(Request{Experiment: "fig5", Seed: 1, Scheme: "edf", Duration: 30, Trace: true})
	if a.Digest() != b.Digest() {
		t.Error("equivalent experiment requests produced different digests")
	}
	// The default scheme is canonical for scenarios.
	c := norm(Request{Scenario: "carfollow"})
	d := norm(Request{Scenario: "carfollow", Scheme: "hcperf", Seed: 1})
	if c.Digest() != d.Digest() {
		t.Error("equivalent scenario requests produced different digests")
	}
	// Distinct requests must not collide.
	distinct := []Request{
		a,
		c,
		norm(Request{Experiment: "fig5", Seed: 2}),
		norm(Request{Experiment: "fig4"}),
		norm(Request{Scenario: "carfollow", Scheme: "edf"}),
		norm(Request{Scenario: "carfollow", Duration: 5}),
		norm(Request{Scenario: "carfollow", Trace: true}),
	}
	seen := make(map[string]int)
	for i, r := range distinct {
		if prev, dup := seen[r.Digest()]; dup {
			t.Errorf("requests %d and %d share digest %s", prev, i, r.Digest()[:12])
		}
		seen[r.Digest()] = i
	}
}

func TestExecuteExperiment(t *testing.T) {
	req, err := Request{Experiment: "fig5"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || res.Report.ID != "fig5" {
		t.Fatalf("Execute report = %+v, want fig5", res.Report)
	}
	if len(res.Events) != 0 {
		t.Error("experiment run unexpectedly captured lifecycle events")
	}
}

func TestExecuteScenarioWithTrace(t *testing.T) {
	req, err := Request{Scenario: "carfollow", Scheme: "edf", Duration: 2, Trace: true}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || len(res.Report.Rows) == 0 {
		t.Fatal("scenario run produced no report rows")
	}
	if len(res.Events) == 0 {
		t.Error("traced scenario run captured no lifecycle events")
	}
}
