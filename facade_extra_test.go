package ccs_test

import (
	"testing"

	"ccs"
)

func TestFacadeFrequentAndRules(t *testing.T) {
	db := facadeDB(t)
	fr, err := ccs.Apriori(db, ccs.FreqParams{MinSupportFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Sets) == 0 {
		t.Fatalf("no frequent sets")
	}
	q := ccs.And(ccs.Aggregate(ccs.AggMax, ccs.Price, ccs.LE, 8))
	cap_, err := ccs.ConstrainedApriori(db, ccs.FreqParams{MinSupportFrac: 0.1}, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cap_.Sets) > len(fr.Sets) {
		t.Fatalf("constrained mining found more sets")
	}
	idx := ccs.BuildVerticalIndex(db)
	var pairs []ccs.ItemSet
	for _, f := range fr.Sets {
		if f.Items.Size() == 2 {
			pairs = append(pairs, f.Items)
		}
	}
	if len(pairs) > 0 {
		rs, err := ccs.RulesFromSets(idx, pairs, ccs.RuleParams{MinConfidence: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if r.Confidence < 0.1 {
				t.Fatalf("threshold violated: %v", r)
			}
		}
	}
}

func TestFacadeTaxonomy(t *testing.T) {
	tr := ccs.NewTaxonomy()
	if err := tr.AddClass("drinks", ""); err != nil {
		t.Fatal(err)
	}
	if err := tr.AssignItem(0, "drinks"); err != nil {
		t.Fatal(err)
	}
	c, err := tr.InClass("drinks")
	if err != nil {
		t.Fatal(err)
	}
	db := facadeDB(t)
	if !c.Satisfies(db.Catalog, ccs.NewItemSet(0)) {
		t.Fatalf("class constraint wrong")
	}
}

func TestFacadeCausal(t *testing.T) {
	db := facadeDB(t)
	res, err := ccs.DiscoverCausal(db, ccs.CausalParams{Alpha: 0.99, MinSupportFrac: 0.05}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) == 0 {
		t.Fatalf("empty causal universe")
	}
}

func TestFacadeCountersAndSample(t *testing.T) {
	db := facadeDB(t)
	for _, c := range []ccs.Counter{
		ccs.NewScanCounter(db),
		ccs.NewBitmapCounter(db),
		ccs.NewCachedBitmapCounter(db, 0),
	} {
		if c.NumTx() != db.NumTx() {
			t.Fatalf("counter NumTx mismatch")
		}
	}
	s, err := ccs.Sample(db, 10, 1)
	if err != nil || s.NumTx() != 10 {
		t.Fatalf("sample: %v", err)
	}
}
