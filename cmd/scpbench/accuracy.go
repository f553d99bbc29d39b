package main

// The accuracy experiment (Q1 in EXPERIMENTS.md): suggestion quality
// measured offline over the seeded scenario corpus. Every scenario has
// a known ground-truth query or completion, so the harness can grade
// the system the way an IR benchmark grades a ranker — precision@k,
// recall, MRR / rank-of-correct — plus the paper's own axis, feedback
// rounds to convergence. The corpus is replayed twice, warm and cold
// (plan cache on/off), and the two runs must produce identical metrics:
// the cache must never change what is suggested, only how fast. The
// corpus is deterministic, so the gates hold the grid and the scenario
// set name for name, at least the baseline's converged count, and mean
// MRR and recall within accuracyTolerance of the baseline.

import (
	"fmt"
	"slices"

	"copycat/internal/scenario"
)

// Accuracy grid: seed, suggestion depth, and feedback-round budget.
const (
	accuracySeed      = 42
	accuracyK         = 3
	accuracyMaxRounds = 8
)

// accuracyReport is the result of the BENCH_8.json report.
type accuracyReport struct {
	Seed      int64              `json:"seed"`
	K         int                `json:"k"`
	MaxRounds int                `json:"max_rounds"`
	Scenarios []scenario.Metrics `json:"scenarios"`
	// Rounds holds each scenario's per-round accuracy curve (round 0 =
	// initial ranking, then one entry per feedback round), parallel to
	// Scenarios. Additive: baselines written before this field existed
	// simply decode it empty, and the gate never compares it.
	Rounds           [][]scenario.RoundMetrics `json:"rounds,omitempty"`
	WebRelate        int                       `json:"webrelate_scenarios"`
	SmartInt         int                       `json:"smartint_scenarios"`
	MeanPrecisionAtK float64                   `json:"mean_precision_at_k"`
	MeanRecall       float64                   `json:"mean_recall"`
	MeanMRR          float64                   `json:"mean_mrr"`
	MeanRounds       float64                   `json:"mean_rounds_to_convergence"`
	Converged        int                       `json:"converged"`
}

// scoreCorpus builds and scores the whole corpus at one cache setting,
// returning both the headline metrics and the per-round curves.
func scoreCorpus(cold bool) ([]scenario.Metrics, [][]scenario.RoundMetrics, error) {
	scs, err := scenario.Corpus(scenario.Config{Seed: accuracySeed, Cold: cold})
	if err != nil {
		return nil, nil, err
	}
	out := make([]scenario.Metrics, len(scs))
	rounds := make([][]scenario.RoundMetrics, len(scs))
	for i, s := range scs {
		if out[i], rounds[i], err = scenario.ScoreWithRounds(s, accuracyK, accuracyMaxRounds); err != nil {
			return nil, nil, err
		}
	}
	return out, rounds, nil
}

// expAccuracy scores the scenario corpus.
func expAccuracy() error {
	warm, warmRounds, err := scoreCorpus(false)
	if err != nil {
		return err
	}
	// Warm/cold cross-check: the plan cache must be invisible in the
	// metrics, not just in the suggestion text.
	cold, coldRounds, err := scoreCorpus(true)
	if err != nil {
		return err
	}
	if len(cold) != len(warm) {
		return fmt.Errorf("warm run scored %d scenarios, cold %d", len(warm), len(cold))
	}
	for i := range warm {
		// The per-round curves must match too: the cache changing how
		// fast feedback converges would be a correctness bug even if the
		// endpoints agree.
		if warm[i] != cold[i] || !slices.Equal(warmRounds[i], coldRounds[i]) {
			return fmt.Errorf("scenario %s: warm %+v %+v != cold %+v %+v",
				warm[i].Scenario, warm[i], warmRounds[i], cold[i], coldRounds[i])
		}
	}

	report := accuracyReport{
		Seed:      accuracySeed,
		K:         accuracyK,
		MaxRounds: accuracyMaxRounds,
		Scenarios: warm,
		Rounds:    warmRounds,
	}
	for _, m := range warm {
		switch m.Kind {
		case scenario.KindWebRelate:
			report.WebRelate++
		case scenario.KindSmartInt:
			report.SmartInt++
		}
		report.MeanPrecisionAtK += m.PrecisionAtK
		report.MeanRecall += m.Recall
		report.MeanMRR += m.MRR
		report.MeanRounds += float64(m.Rounds)
		if m.Converged {
			report.Converged++
		}
	}
	if n := float64(len(warm)); n > 0 {
		report.MeanPrecisionAtK /= n
		report.MeanRecall /= n
		report.MeanMRR /= n
		report.MeanRounds /= n
	}

	rows := make([][]string, 0, len(warm))
	for _, m := range warm {
		conv := "no"
		if m.Converged {
			conv = "yes"
		}
		rows = append(rows, []string{
			m.Scenario, m.Kind, fmt.Sprint(m.RankOfCorrect),
			f("%.3f", m.PrecisionAtK), f("%.3f", m.Recall), f("%.3f", m.MRR),
			fmt.Sprint(m.Rounds), conv,
		})
	}
	printTable([]string{"scenario", "kind", "rank", "p@3", "recall", "mrr", "rounds", "converged"}, rows)
	fmt.Printf("\nmeans: p@%d=%.3f recall=%.3f mrr=%.3f rounds=%.2f; %d/%d converged (warm == cold)\n",
		report.K, report.MeanPrecisionAtK, report.MeanRecall, report.MeanMRR,
		report.MeanRounds, report.Converged, len(warm))

	// Accuracy curve: mean MRR per feedback round, over the scenarios
	// still in the loop at that round (converged scenarios stop being
	// graded, so later rounds average over fewer, harder scenarios).
	maxRound := 0
	for _, rs := range warmRounds {
		if len(rs) > maxRound {
			maxRound = len(rs)
		}
	}
	fmt.Print("mean mrr by round:")
	for r := 0; r < maxRound; r++ {
		sum, n := 0.0, 0
		for _, rs := range warmRounds {
			if r < len(rs) {
				sum += rs[r].MRR
				n++
			}
		}
		fmt.Printf("  r%d=%.3f(%d)", r, sum/float64(n), n)
	}
	fmt.Println()

	return finish("accuracy", report, []gate{
		{"scenario", "seed", sameAsBase, 0},
		{"scenario", "k", sameAsBase, 0},
		{"scenario", "max_rounds", sameAsBase, 0},
		{"scenario", "scenarios.*.scenario", sameAsBase, 0},
		{"mira", "converged", baseSlack, 0},
		{"intlearn", "mean_mrr", baseSlack, accuracyTolerance},
		{"intlearn", "mean_recall", baseSlack, accuracyTolerance},
	})
}

// accuracyTolerance is the allowed slack on the mean MRR/recall gates:
// the metrics are deterministic for a fixed seed, but small intended
// ranking changes shouldn't force a baseline bump for sub-tolerance
// drift.
const accuracyTolerance = 0.05
