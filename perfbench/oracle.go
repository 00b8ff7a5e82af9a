package main

import (
	"errors"
	"fmt"
	"math"

	"ccs/internal/constraint"
	"ccs/internal/core"
	"ccs/internal/counting"
	"ccs/internal/cql"
	"ccs/internal/dataset"
	"ccs/internal/itemset"
)

// query is one mining request as both the library and the service take it:
// an algorithm, a constraint text, and the statistical thresholds.
type query struct {
	algo string // bms, bms+, bms++, bms*, bms**
	text string // constraint expression; empty means true
	push bool   // witness push for bms++/bms**
	p    core.Params
}

// constraints parses q's constraint text.
func (q query) constraints() (*constraint.Conjunction, error) {
	if q.text == "" {
		return cql.Parse("true")
	}
	return cql.Parse(q.text)
}

// mine runs q on m.
func (q query) mine(m *core.Miner) (*core.Result, error) {
	c, err := q.constraints()
	if err != nil {
		return nil, err
	}
	return q.mineParsed(m, c)
}

func (q query) mineParsed(m *core.Miner, c *constraint.Conjunction) (*core.Result, error) {
	switch q.algo {
	case "bms":
		return m.BMS()
	case "bms+":
		return m.BMSPlus(c)
	case "bms++":
		return m.BMSPlusPlus(c, core.PlusPlusOptions{PushMonotoneSuccinct: q.push})
	case "bms*":
		return m.BMSStar(c)
	case "bms**":
		return m.BMSStarStar(c, core.StarStarOptions{PushMonotoneSuccinct: q.push})
	}
	return nil, fmt.Errorf("unknown algorithm %q", q.algo)
}

// oracle mines q serially with the horizontal scan counter, which shares no
// counting code with the vertical engines, and returns the digest of its
// answers. It runs once per seed, outside every timed region.
func oracle(db *dataset.DB, q query) (answerDigest, error) {
	m, err := core.New(db, q.p, core.WithCounter(counting.NewScanCounter(db)), core.WithWorkers(1))
	if err != nil {
		return answerDigest{}, err
	}
	res, err := q.mine(m)
	if err != nil {
		return answerDigest{}, err
	}
	if res.Truncated {
		return answerDigest{}, fmt.Errorf("oracle run truncated: %v", res.Cause)
	}
	return digestSets(res.Answers), nil
}

// errMismatch marks an answer set that differs from the oracle's.
var errMismatch = errors.New("answers differ from the oracle's")

// check compares a library result with the oracle's digest.
func check(res *core.Result, want answerDigest) error {
	if res.Truncated {
		return fmt.Errorf("truncated: %v", res.Cause)
	}
	if got := digestSets(res.Answers); got != want {
		return fmt.Errorf("%w: digest %v, oracle %v", errMismatch, got, want)
	}
	return nil
}

// answerDigest identifies an answer set independently of the order of its
// sets: the number of sets and the sum of a 64-bit hash of each. Building
// one allocates nothing, so the check adds no allocation of its own to an
// op's alloc_mb_per_op.
type answerDigest struct {
	sets int
	sum  uint64
}

func (d answerDigest) String() string { return fmt.Sprintf("%d:%016x", d.sets, d.sum) }

func digestSets(sets []itemset.Set) answerDigest {
	var d answerDigest
	for _, s := range sets {
		h := newSetHash()
		for _, it := range s {
			h.add(uint64(it))
		}
		d.addSet(h)
	}
	return d
}

// addSet adds one set's hash, spread over all 64 bits by the splitmix64
// finalizer so that summing hashes keeps them apart.
func (d *answerDigest) addSet(h setHash) {
	x := uint64(h)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	d.sets++
	d.sum += x
}

// setHash is the FNV-1a hash of a set's items, four bytes each, in order.
type setHash uint64

func newSetHash() setHash { return 14695981039346656037 }

func (h *setHash) add(item uint64) {
	for k := 0; k < 4; k++ {
		*h ^= setHash(item >> (8 * k) & 0xff)
		*h *= 1099511628211
	}
}

// UnmarshalJSON digests the "answers" array of a /v1/mine reply, an array
// of arrays of item ids, as it scans it, without decoding it into slices.
func (d *answerDigest) UnmarshalJSON(b []byte) error {
	*d = answerDigest{}
	if string(b) == "null" {
		return nil
	}
	var (
		h     setHash
		num   uint64
		inNum bool
		depth int
	)
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			num = num*10 + uint64(c-'0')
			if num > math.MaxUint32 {
				return fmt.Errorf("answers: item id out of range")
			}
			inNum = true
		case c == '[':
			depth++
			if depth > 2 {
				return fmt.Errorf("answers: nested deeper than a list of sets")
			}
			h = newSetHash()
		case c == ',' || c == ']':
			if inNum {
				if depth != 2 {
					return fmt.Errorf("answers: item id outside a set")
				}
				h.add(num)
				num, inNum = 0, false
			}
			if c == ']' {
				if depth == 2 {
					d.addSet(h)
				}
				depth--
			}
		case c == ' ' || c == '\n' || c == '\t' || c == '\r':
		default:
			return fmt.Errorf("answers: unexpected %q", c)
		}
	}
	if depth != 0 {
		return fmt.Errorf("answers: unbalanced brackets")
	}
	return nil
}
