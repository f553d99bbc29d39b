// Package mira implements the MIRA online learning algorithm ([7], §4.2)
// as CopyCat uses it: query costs are sums of independent feature weights
// (one feature per source-graph edge), user feedback induces ranking
// constraints between queries, and each update changes weights only on
// the features where the two queries differ — by the minimal amount that
// satisfies the constraint (passive-aggressive).
package mira

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Constraint demands cost(Preferred) + Margin ≤ cost(Other): the user
// accepted Preferred's results (or rejected Other's).
type Constraint struct {
	Preferred []string // feature (edge) IDs of the preferred query
	Other     []string // feature IDs of the dispreferred query
	Margin    float64  // required cost separation (default DefaultMargin)
}

// DefaultMargin separates re-ranked queries enough that small later
// updates don't immediately flip them back.
const DefaultMargin = 0.5

// Learner holds the feature weights. A zero-valued default (see New) is
// the source graph's DefaultCost for unseen features.
type Learner struct {
	mu       sync.RWMutex
	weights  map[string]float64
	def      float64 // weight of a feature never updated
	C        float64 // aggressiveness cap (0 = uncapped)
	MinFloor float64 // weights never drop below this (keeps Steiner costs ≥ 0)
}

// New creates a learner whose unseen features default to def.
func New(def float64) *Learner {
	return &Learner{weights: map[string]float64{}, def: def, MinFloor: 0.01}
}

// SetWeight seeds or overrides a feature's weight directly — used to
// initialize the learner from externally assigned edge costs (e.g. a
// schema matcher's confidence scores, §4.1).
func (l *Learner) SetWeight(f string, w float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.weights[f] = w
}

// Weight returns a feature's current weight.
func (l *Learner) Weight(f string) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if w, ok := l.weights[f]; ok {
		return w
	}
	return l.def
}

// Cost sums the weights of a query's features — the additive cost model
// shared with the Steiner machinery.
func (l *Learner) Cost(features []string) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	c := 0.0
	for _, f := range features {
		if w, ok := l.weights[f]; ok {
			c += w
		} else {
			c += l.def
		}
	}
	return c
}

// Violated reports whether a constraint is currently violated.
func (l *Learner) Violated(c Constraint) bool {
	margin := c.Margin
	if margin == 0 {
		margin = DefaultMargin
	}
	// Small tolerance: a passive-aggressive update lands exactly on the
	// margin, which must count as satisfied.
	return l.Cost(c.Other)-l.Cost(c.Preferred) < margin-1e-9
}

// Update applies one passive-aggressive step for the constraint. It
// returns true if weights changed. Only features appearing a different
// number of times in the two queries move (§4.2: "It adjusts weights only
// on edges that differ between the graphs").
func (l *Learner) Update(c Constraint) bool {
	margin := c.Margin
	if margin == 0 {
		margin = DefaultMargin
	}
	// φ = count(Other) − count(Preferred) per feature; want w·φ ≥ margin.
	phi := map[string]float64{}
	for _, f := range c.Other {
		phi[f]++
	}
	for _, f := range c.Preferred {
		phi[f]--
	}
	// Sum in sorted feature order: floating-point addition is not
	// associative, and map order would make the last bits of dot and
	// newDot — and with them the loss and clamp checks — vary by run.
	feats := make([]string, 0, len(phi))
	for f, v := range phi {
		if v != 0 {
			feats = append(feats, f)
		}
	}
	if len(feats) == 0 {
		return false // identical queries cannot be separated
	}
	sort.Strings(feats)
	l.mu.Lock()
	defer l.mu.Unlock()
	dot, norm := 0.0, 0.0
	for _, f := range feats {
		v := phi[f]
		w, ok := l.weights[f]
		if !ok {
			w = l.def
		}
		dot += w * v
		norm += v * v
	}
	loss := margin - dot
	if loss <= 0 {
		return false // already satisfied (passive)
	}
	tau := loss / norm
	if l.C > 0 && tau > l.C {
		tau = l.C
	}
	clamped := false
	newDot := 0.0
	for _, f := range feats {
		v := phi[f]
		w, ok := l.weights[f]
		if !ok {
			w = l.def
		}
		w += tau * v
		if w < l.MinFloor {
			w = l.MinFloor
			clamped = true
		}
		l.weights[f] = w
		newDot += w * v
	}
	// The MinFloor clamp can absorb the whole step, leaving the
	// constraint as violated as before. Reporting true then would be
	// phantom progress: UpdateBatch would spin through its entire epoch
	// budget re-applying a no-op. Only claim a change when the margin
	// actually moved.
	if clamped && newDot <= dot+1e-12 {
		return false
	}
	return true
}

// UpdateBatch cycles through constraints until none is violated or the
// epoch budget runs out; it returns the number of updates applied.
func (l *Learner) UpdateBatch(cs []Constraint, epochs int) int {
	updates := 0
	for e := 0; e < epochs; e++ {
		changed := false
		for _, c := range cs {
			if l.Update(c) {
				updates++
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return updates
}

// Snapshot returns a copy of all explicitly learned weights.
func (l *Learner) Snapshot() map[string]float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make(map[string]float64, len(l.weights))
	for f, w := range l.weights {
		out[f] = w
	}
	return out
}

// String lists learned weights deterministically (for logs and tests).
func (l *Learner) String() string {
	snap := l.Snapshot()
	keys := make([]string, 0, len(snap))
	for f := range snap {
		keys = append(keys, f)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("mira{")
	for i, f := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%.3f", f, snap[f])
	}
	b.WriteString("}")
	return b.String()
}
