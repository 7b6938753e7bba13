package service

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/texttable"
)

// runScan executes one scan request against the experiment layer,
// honouring ctx (per-job deadline plus service shutdown) and returning the
// structured result. The Rendered field is exactly what the corresponding
// CLI command prints for the same seeds — the byte-identity contract that
// lets operators diff API results against leakscan output.
func runScan(ctx context.Context, req ScanRequest) (*ScanResult, error) {
	return runScanWith(ctx, req, nil)
}

// runScanWith is runScan with an optional engine-backed session pool.
// Chaos-free table1/inspect/discovery requests route through pooled
// sessions when pool is non-nil, so a recurring scan's later ticks reuse
// the incremental engine (cache hits, zero re-renders) instead of
// rebuilding the world. The engine's byte-identity invariant — every pass
// equals a cold scan — keeps the Rendered output identical either way;
// chaos requests always take the one-shot path (their fault streams must
// start fresh every run).
func runScanWith(ctx context.Context, req ScanRequest, pool *sessionPool) (*ScanResult, error) {
	req = req.Normalize()
	spec := req.Chaos()
	pooled := pool != nil && req.ChaosRate == 0
	res := &ScanResult{Request: req}
	switch req.Kind {
	case KindTable1:
		var (
			t   *experiments.Table1Result
			err error
		)
		if pooled {
			t, err = pool.table1(ctx, req.Seed, req.Workers)
		} else {
			t, err = experiments.Table1(ctx, spec, req.Seed, req.Workers)
		}
		if err != nil {
			return nil, err
		}
		res.Rendered = t.String()
		res.Verdicts = verdictsOf(t.Inspections)
	case KindInspect:
		if req.Runtime != "" {
			return runRuntimeInspect(ctx, req, pool, res)
		}
		p, ok := ProviderByName(req.Provider)
		if !ok {
			return nil, fmt.Errorf("service: unknown provider %q", req.Provider)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var (
			ins experiments.CloudInspection
			err error
		)
		if pooled {
			ins, err = pool.inspect(p, req.Seed, req.Workers)
		} else {
			ins, err = experiments.InspectProviderSeeded(p, spec, req.Seed)
		}
		if err != nil {
			return nil, err
		}
		res.Rendered = renderInspection(ins, req)
		res.Verdicts = verdictsOf([]experiments.CloudInspection{ins})
	case KindMatrix:
		var (
			m   *experiments.MatrixResult
			err error
		)
		if pooled {
			m, err = pool.matrix(ctx, req.Seed, req.Workers)
		} else {
			m, err = experiments.MatrixSweep(ctx, spec, req.Seed, req.Workers)
		}
		if err != nil {
			return nil, err
		}
		res.Rendered = m.String()
		res.Verdicts = verdictsOf(m.Inspections)
	case KindDiscovery:
		var (
			d   *experiments.DiscoveryResult
			err error
		)
		if pooled {
			if err = ctx.Err(); err != nil {
				return nil, err
			}
			d = pool.discovery(req.Seed, req.Workers)
		} else {
			d, err = experiments.Discovery(ctx, spec, req.Seed, req.Workers)
		}
		if err != nil {
			return nil, err
		}
		res.Rendered = d.String()
	case KindFig3:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		f, err := experiments.Fig3Chaos(spec)
		if err != nil {
			return nil, err
		}
		res.Rendered = f.String()
	case KindFig8:
		f, err := experiments.Fig8(ctx, spec, req.Workers)
		if err != nil {
			return nil, err
		}
		res.Rendered = f.String()
	case KindChaosSweep:
		seed := req.ChaosSeed
		if seed == 0 {
			seed = 1 // the -chaosseed default; the sweep arms its own rates
		}
		s, err := experiments.ChaosSweep(ctx, nil, seed, req.Workers)
		if err != nil {
			return nil, err
		}
		res.Rendered = s.String()
	default:
		return nil, fmt.Errorf("service: unknown kind %q", req.Kind)
	}
	return res, nil
}

// runRuntimeInspect executes a single-runtime inspection (KindInspect with
// Runtime set): the named runtime target rolled up over the matrix channel
// set, pooled like any other inspect target when chaos is off.
func runRuntimeInspect(ctx context.Context, req ScanRequest, pool *sessionPool, res *ScanResult) (*ScanResult, error) {
	p, ok := RuntimeByName(req.Runtime)
	if !ok {
		return nil, fmt.Errorf("service: unknown runtime %q", req.Runtime)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var (
		ins experiments.CloudInspection
		err error
	)
	if pool != nil && req.ChaosRate == 0 {
		ins, err = pool.inspectChannels(p, req.Seed, req.Workers, core.MatrixChannels())
	} else {
		var s *experiments.InspectSession
		s, err = experiments.NewInspectSession(p, req.Chaos(), req.Seed)
		if err == nil {
			ins = s.InspectChannels(core.MatrixChannels(), req.Workers)
		}
	}
	if err != nil {
		return nil, err
	}
	res.Rendered = renderInspection(ins, req)
	res.Verdicts = verdictsOf([]experiments.CloudInspection{ins})
	return res, nil
}

// verdictsOf flattens inspections into (provider, channel, availability)
// cells, skipping failed providers (their error lives on the job, and a
// failed inspection is not a verdict).
func verdictsOf(ins []experiments.CloudInspection) []Verdict {
	var out []Verdict
	for _, in := range ins {
		if in.Err != nil {
			continue
		}
		for _, rep := range in.Reports {
			out = append(out, Verdict{
				Provider:     in.Provider,
				Channel:      rep.Channel.Name,
				Availability: rep.Availability.String(),
			})
		}
	}
	return out
}

// renderInspection prints a single-provider availability column — the
// service-only slice of Table I a per-provider recurring job produces.
func renderInspection(ins experiments.CloudInspection, req ScanRequest) string {
	tb := texttable.New("Leakage Channels", "Leakage Information", strings.ToUpper(ins.Provider))
	for _, rep := range ins.Reports {
		tb.Row(rep.Channel.Name, rep.Channel.Info, rep.Availability.String())
	}
	return fmt.Sprintf("INSPECTION: %s (%s)\n%s", ins.Provider, req.Chaos(), tb.String())
}

// ChannelInfo is the JSON shape of one registry channel for GET /channels.
type ChannelInfo struct {
	Name       string   `json:"name"`
	Paths      []string `json:"paths"`
	Info       string   `json:"info,omitempty"`
	CoRes      bool     `json:"co_residence"`
	DoS        bool     `json:"dos"`
	InfoLeak   bool     `json:"info_leak"`
	Uniqueness string   `json:"uniqueness"`
	Manipulate string   `json:"manipulate"`
}

// Channels exports the Table I registry in JSON-friendly form.
func Channels() []ChannelInfo {
	chs := core.TableIChannels()
	out := make([]ChannelInfo, len(chs))
	for i, ch := range chs {
		out[i] = ChannelInfo{
			Name:       ch.Name,
			Paths:      ch.Paths,
			Info:       ch.Info,
			CoRes:      ch.CoRes,
			DoS:        ch.DoS,
			InfoLeak:   ch.InfoLeak,
			Uniqueness: uniquenessName(ch.Uniqueness),
			Manipulate: manipulateName(ch.Manipulate),
		}
	}
	return out
}

func uniquenessName(u core.UClass) string {
	switch u {
	case core.UStatic:
		return "static"
	case core.UImplant:
		return "implant"
	case core.UDynamic:
		return "dynamic"
	default:
		return "none"
	}
}

func manipulateName(m core.MLevel) string {
	switch m {
	case core.MDirect:
		return "direct"
	case core.MIndirect:
		return "indirect"
	default:
		return "none"
	}
}
