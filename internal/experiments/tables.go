// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment returns a structured result with a String
// renderer; the cmd/ binaries print them and the repository-level benchmarks
// run them under testing.B. All experiments are deterministic for a fixed
// seed.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/pseudofs"
	"repro/internal/texttable"
)

// glyph renders a Table I/II boolean.
func glyph(b bool) string {
	if b {
		return "●"
	}
	return "○"
}

// Table1Result is the reproduction of Table I.
type Table1Result struct {
	Inspections []CloudInspection
}

// Table1 runs the leakage detector against the local testbed and all five
// commercial cloud profiles — the full Table I. Every provider's datacenter
// is built from seed (0 = DefaultInspectSeed) with its observation surface
// armed by spec (the zero Spec injects nothing; per-provider fault streams
// are salted by hostname). The six provider worlds are share-nothing and
// inspected in parallel over workers (0 = GOMAXPROCS); the result is in
// profile order and byte-identical at any worker count. Cancelling ctx
// stops dispatching providers, so a leaksd shutdown aborts an in-flight
// sweep instead of orphaning it.
//
// Provider failures are collected, not fatal: a failed provider appears in
// Inspections with Err set, and the returned error is non-nil only when
// every provider failed.
func Table1(ctx context.Context, spec chaos.Spec, seed int64, workers int) (*Table1Result, error) {
	return Table1With(ctx, workers, func(p cloud.ProviderProfile) (CloudInspection, error) {
		return InspectProviderSeeded(p, spec, seed)
	})
}

// Table1With is Table1 with the per-provider inspection supplied by the
// caller: leaksd passes a lookup into its pooled sessions. The fan-out,
// the profile order and the failure folding are Table1's.
func Table1With(ctx context.Context, workers int, inspect func(cloud.ProviderProfile) (CloudInspection, error)) (*Table1Result, error) {
	profiles := append([]cloud.ProviderProfile{cloud.LocalTestbed()}, cloud.CommercialClouds()...)
	ins, err := inspectProfiles(ctx, profiles, workers, inspect)
	if err != nil {
		return nil, fmt.Errorf("experiments: table 1: %w", err)
	}
	return &Table1Result{Inspections: ins}, nil
}

// String renders the availability matrix in the paper's row order. A
// provider whose inspection failed renders as "✗" in every row, with the
// error appended below the table — partial results beat no table when one
// of six clouds breaks.
func (r *Table1Result) String() string {
	headers := []string{"Leakage Channels", "Leakage Information", "Co-re", "DoS", "Leak"}
	for _, ins := range r.Inspections[1:] { // skip local in the matrix columns
		headers = append(headers, strings.ToUpper(ins.Provider))
	}
	tb := texttable.New(headers...)
	channels := core.TableIChannels()
	for i, ch := range channels {
		row := []string{ch.Name, ch.Info, glyph(ch.CoRes), glyph(ch.DoS), glyph(ch.InfoLeak)}
		for _, ins := range r.Inspections[1:] {
			if ins.Err != nil {
				row = append(row, "✗")
				continue
			}
			row = append(row, ins.Reports[i].Availability.String())
		}
		tb.Row(row...)
	}
	s := "TABLE I: LEAKAGE CHANNELS IN COMMERCIAL CONTAINER CLOUD SERVICES\n" + tb.String()
	for _, ins := range r.Inspections {
		if ins.Err != nil {
			s += fmt.Sprintf("✗ %s: inspection failed: %v\n", ins.Provider, ins.Err)
		}
	}
	return s
}

// Available counts ● channels for a provider by name ("local", "cc1", …).
// Failed providers (and unknown names) report -1.
func (r *Table1Result) Available(provider string) int {
	for _, ins := range r.Inspections {
		if ins.Provider != provider {
			continue
		}
		if ins.Err != nil {
			return -1
		}
		n := 0
		for _, rep := range ins.Reports {
			if rep.Availability == core.Available {
				n++
			}
		}
		return n
	}
	return -1
}

// Table2Result is the reproduction of Table II.
type Table2Result struct {
	Assessments []core.Assessment
}

// Table2 measures the U/V/M metrics and entropy ranking on the local
// testbed, with a busy co-tenant supplying background variation.
func Table2() (*Table2Result, error) {
	k := kernel.New(kernel.Options{Hostname: "rank-host", Seed: 2})
	fs := pseudofs.Build(k, pseudofs.DefaultHardware())
	rt := container.NewRuntime(k, fs, container.DockerProfile())
	probe := rt.Create("probe")
	busy := rt.Create("busy")
	if _, ok := profileByName("prime"); !ok {
		return nil, fmt.Errorf("experiments: prime profile missing")
	}
	p, _ := profileByName("prime")
	busy.Run(p, 2)

	advance := func() { k.Tick(k.Now()+5, 5) }
	advance()
	as := core.Assess(core.TableIIChannels(), probe.Mount(), advance, 12)
	return &Table2Result{Assessments: as}, nil
}

// String renders the U/V/M ranking.
func (r *Table2Result) String() string {
	tb := texttable.New("Leakage Channels", "U", "V", "M", "Entropy(bits)", "Rank")
	for _, a := range r.Assessments {
		rank := "—"
		if a.Rank > 0 {
			rank = fmt.Sprintf("%d", a.Rank)
		}
		ent := ""
		if a.Channel.Uniqueness == core.UNone && a.Varying {
			ent = fmt.Sprintf("%.1f", a.Entropy)
		}
		tb.Row(a.Channel.Name,
			glyph(a.Channel.Uniqueness != core.UNone),
			glyph(a.Varying),
			a.Channel.Manipulate.String(),
			ent, rank)
	}
	return fmt.Sprintf(
		"TABLE II: CHANNEL RANKING FOR CO-RESIDENCE INFERENCE (Spearman vs paper: %.2f)\n%s",
		r.RankAgreement(), tb.String())
}

// paperTableIIOrder is the row order of the paper's printed Table II (the
// 26 ranked channels; modules/cpuinfo/version are unranked).
var paperTableIIOrder = []string{
	"/proc/sys/kernel/random/boot_id",
	"/sys/fs/cgroup/net_prio/net_prio.ifpriomap",
	"/proc/sched_debug",
	"/proc/timer_list",
	"/proc/locks",
	"/proc/uptime",
	"/proc/stat",
	"/proc/schedstat",
	"/proc/softirqs",
	"/proc/interrupts",
	"/sys/devices/system/node/node#/numastat",
	"/sys/class/powercap/.../energy_uj",
	"/sys/devices/system/.../usage",
	"/sys/devices/system/.../time",
	"/proc/sys/fs/dentry-state",
	"/proc/sys/fs/inode-nr",
	"/proc/sys/fs/file-nr",
	"/proc/zoneinfo",
	"/proc/meminfo",
	"/proc/fs/ext4/sda#/mb_groups",
	"/sys/devices/system/node/node#/vmstat",
	"/sys/devices/system/node/node#/meminfo",
	"/sys/devices/platform/.../temp#_input",
	"/proc/loadavg",
	"/proc/sys/kernel/random/entropy_avail",
	"/proc/sys/kernel/.../max_newidle_lb_cost",
}

// RankAgreement computes the Spearman rank correlation between this run's
// measured Table II ordering and the paper's printed order, over the 26
// ranked channels — the honest single-number fidelity metric for Table II.
func (r *Table2Result) RankAgreement() float64 {
	ourRank := map[string]int{}
	for i, a := range r.Assessments {
		ourRank[a.Channel.Name] = i + 1
	}
	n := len(paperTableIIOrder)
	var d2 float64
	for paperPos, name := range paperTableIIOrder {
		our, ok := ourRank[name]
		if !ok {
			return -2 // registry drift; callers treat as failure
		}
		d := float64(our - (paperPos + 1))
		d2 += d * d
	}
	nn := float64(n)
	return 1 - 6*d2/(nn*(nn*nn-1))
}
