package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"

	"copycat/internal/intlearn"
)

// digest hashes the canonical rendering of a suggestion list — edge,
// target, cost and every result row — so two lists get the same digest
// exactly when a user would see the same suggestions. Only the hash is
// kept, so stored digests do not weigh on the live heap the benchmark
// reports.
func digest(comps []intlearn.Completion) string {
	h := sha256.New()
	for _, c := range comps {
		fmt.Fprintf(h, "%s→%s@%.9g[", c.Edge.ID, c.Target, c.Cost)
		if c.Result != nil {
			for _, a := range c.Result.Rows {
				io.WriteString(h, a.Row.Key())
				h.Write([]byte{';'})
			}
		}
		io.WriteString(h, "]\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigests compares a warm session's suggestion digests with those
// of a cold twin given the same inputs.
func checkDigests(warm, cold []string) error {
	if len(warm) != len(cold) {
		return incorrect("warm session produced %d suggestion lists, cold twin %d", len(warm), len(cold))
	}
	for i := range warm {
		if warm[i] != cold[i] {
			return incorrect("suggestion list %d differs from the cold twin (digest %.12s, cold %.12s)", i, warm[i], cold[i])
		}
	}
	return nil
}

// checkReattach compares the first suggestion list after an attach with
// the last list the session showed before it was released.
func checkReattach(before, after string) error {
	if before != after {
		return incorrect("suggestions changed across release and attach (digest %.12s before, %.12s after)", before, after)
	}
	return nil
}

// queryName identifies a query by its sorted node set.
func queryName(q *intlearn.Query) string { return strings.Join(q.Nodes, "+") }

// chainName is the name a query over exactly these sources has.
func chainName(nodes []string) string {
	s := append([]string(nil), nodes...)
	sort.Strings(s)
	return strings.Join(s, "+")
}

// findQuery returns the query in qs named want, or nil.
func findQuery(qs []*intlearn.Query, want string) *intlearn.Query {
	for _, q := range qs {
		if queryName(q) == want {
			return q
		}
	}
	return nil
}

// checkTop1 requires the ranking's best query to be want.
func checkTop1(qs []*intlearn.Query, want string) error {
	if len(qs) == 0 {
		return failed("re-ranked search returned no query")
	}
	if got := queryName(qs[0]); got != want {
		return incorrect("re-ranked top-1 is %s, want the accepted query %s", got, want)
	}
	return nil
}

// checkRowCount requires a generalization or query result to hold
// exactly the rows the ground truth has.
func checkRowCount(what string, got, want int) error {
	if got != want {
		return incorrect("%s has %d rows, ground truth has %d", what, got, want)
	}
	return nil
}
