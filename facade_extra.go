package ccs

import (
	"ccs/internal/causal"
	"ccs/internal/counting"
	"ccs/internal/dataset"
	"ccs/internal/freq"
	"ccs/internal/rules"
	"ccs/internal/taxonomy"
)

// This file re-exports the companion subsystems: frequent-set mining (the
// framework the paper extends), association rules, class taxonomies, and
// constraint-aware causal discovery.

// Frequent-set mining (Apriori / CAP).
type (
	// FreqParams carries the frequency threshold.
	FreqParams = freq.Params
	// FrequentSet is an itemset with its support.
	FrequentSet = freq.FrequentSet
	// FreqResult is a frequent-set mining outcome.
	FreqResult = freq.Result
)

// Apriori computes all frequent itemsets.
func Apriori(db *DB, p FreqParams) (*FreqResult, error) { return freq.Apriori(db, p) }

// ConstrainedApriori computes all frequent itemsets satisfying the query,
// pushing anti-monotone constraints into the search (the CAP strategy of
// Ng et al.).
func ConstrainedApriori(db *DB, p FreqParams, q *Conjunction) (*FreqResult, error) {
	return freq.CAP(db, p, q)
}

// Association rules.
type (
	// Rule is an association rule with support, confidence and lift.
	Rule = rules.Rule
	// RuleParams sets the rule-quality thresholds.
	RuleParams = rules.Params
	// VerticalIndex maps items to transaction bitsets.
	VerticalIndex = dataset.VerticalIndex
)

// BuildVerticalIndex indexes db for rule derivation and support queries.
func BuildVerticalIndex(db *DB) *VerticalIndex { return dataset.BuildVerticalIndex(db) }

// RulesFromSets expands mined itemsets into association rules.
func RulesFromSets(idx *VerticalIndex, sets []ItemSet, p RuleParams) ([]Rule, error) {
	return rules.FromSets(idx, sets, p)
}

// Taxonomy is an item-class hierarchy providing class constraints.
type Taxonomy = taxonomy.Tree

// NewTaxonomy returns an empty taxonomy.
func NewTaxonomy() *Taxonomy { return taxonomy.New() }

// Causal discovery.
type (
	// CausalParams tunes the dependence and conditional-independence tests.
	CausalParams = causal.Params
	// CausalResult is the discovered structure.
	CausalResult = causal.Result
	// Collider is a CCU inference (CauseA → Effect ← CauseB).
	Collider = causal.Collider
	// Mediator is a CCC inference (M separates A and B).
	Mediator = causal.Mediator
)

// DiscoverCausal runs the CCU/CCC rules with optional anti-monotone
// constraint focusing.
func DiscoverCausal(db *DB, p CausalParams, q *Conjunction) (*CausalResult, error) {
	return causal.Discover(db, p, q)
}

// Counting engines, for Miner options via core.WithCounter-compatible use.
type (
	// Counter builds contingency tables for itemset batches.
	Counter = counting.Counter
)

// NewScanCounter returns the horizontal one-pass-per-level counter.
func NewScanCounter(db *DB) Counter { return counting.NewScanCounter(db) }

// NewBitmapCounter returns the vertical bitset counter (the default).
func NewBitmapCounter(db *DB) Counter { return counting.NewBitmapCounter(db) }

// NewCachedBitmapCounter returns the vertical counter with a
// prefix-intersection cache of at most cacheBytes bytes (<= 0 picks the
// default budget): TID-lists of canonical prefixes persist across lattice
// levels, so candidates reuse their parent's intersection instead of
// recomputing it.
func NewCachedBitmapCounter(db *DB, cacheBytes int64) Counter {
	return counting.NewCachedBitmapCounter(db, cacheBytes)
}

// NewDiskScanCounter streams the dataset file on every scan (bounded
// memory).
func NewDiskScanCounter(path string) (Counter, error) { return counting.NewDiskScanCounter(path) }

// Sample draws n transactions uniformly without replacement.
func Sample(db *DB, n int, seed int64) (*DB, error) { return dataset.Sample(db, n, seed) }
