package core

import (
	"fmt"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sqljson"
)

// Check is the graph fsck: it verifies the invariants the hybrid schema's
// redundancy depends on. The paper (Section 4.5.2) keeps adjacency both
// in EA and in the OPA/IPA hash tables and trusts multi-table stored
// procedures to keep them aligned; Check proves, for a concrete store,
// that they actually are:
//
//   - every live EA row has exactly one matching cell (label, eid,
//     neighbor) on each adjacency side, reachable via the cell's lid
//     list when the label is multi-valued, and vice versa — with the one
//     exception that DeletePaperSoft deliberately leaves cells dangling
//     at soft-deleted neighbors until Vacuum;
//   - EA endpoints are live (soft-deleted vertices have no live EA rows);
//   - negated adjacency rows (VID = -VID-1) belong to soft-deleted
//     vertices present in VA;
//   - cells are well-formed, sit in the column their label hashes to,
//     and no vertex repeats a label across its rows;
//   - SPILL is 0 on an only row and 1 on every row of a multi-row vertex;
//   - secondary (OSA/ISA) rows belong to exactly one live lid cell, and
//     lid cells have at least one secondary row;
//   - VA/EA attribute documents are valid JSON.

// Violation is one invariant breach found by Check.
type Violation struct {
	Code   string // stable machine-readable class, e.g. "ADJ_MISSING"
	Detail string
}

func (v Violation) String() string { return v.Code + ": " + v.Detail }

// adjKey identifies one logical adjacency entry on one side.
type adjKey struct {
	vid   int64
	label string
	eid   int64
	val   int64
}

type checker struct {
	s          *Store
	tx         *rel.Txn
	violations []Violation
	live       map[int64]bool // VA rows with VID >= 0
	deleted    map[int64]bool // original ids of negated VA rows
}

func (c *checker) addf(code, format string, args ...any) {
	c.violations = append(c.violations, Violation{Code: code, Detail: fmt.Sprintf(format, args...)})
}

// Check runs the full invariant scan and returns every violation found
// (nil for a healthy store).
func Check(s *Store) []Violation {
	c := &checker{s: s, live: map[int64]bool{}, deleted: map[int64]bool{}}
	c.tx = s.fpReadAll.Begin()
	defer c.tx.Rollback()

	c.scanVA()
	expectedOut, expectedIn := c.scanEA()
	c.checkSide(true, expectedOut)
	c.checkSide(false, expectedIn)
	return c.violations
}

func (c *checker) checkJSON(code string, v rel.Value, what string) {
	if v.Kind() != rel.KindJSON {
		c.addf(code, "%s attribute column is not a JSON document", what)
		return
	}
	if _, err := sqljson.Parse(v.JSON().String()); err != nil {
		c.addf(code, "%s attribute document does not re-parse: %v", what, err)
	}
}

func (c *checker) scanVA() {
	_ = c.tx.Scan(TableVA, func(rid rel.RowID, vals []rel.Value) bool {
		vid := vals[vaVID].Int()
		if vid >= 0 {
			c.live[vid] = true
		} else {
			orig := -vid - 1
			if c.deleted[orig] {
				c.addf("VA_DUP_DELETED", "vertex %d soft-deleted twice", orig)
			}
			c.deleted[orig] = true
		}
		c.checkJSON("JSON_BAD", vals[vaATTR], fmt.Sprintf("VA row for vertex %d", vid))
		return true
	})
	for vid := range c.live {
		if c.deleted[vid] {
			c.addf("VA_LIVE_AND_DELETED", "vertex %d is both live and soft-deleted", vid)
		}
	}
}

// scanEA validates EA rows and builds the adjacency entries each side
// must hold: (src, lbl, eid, dst) for OPA/OSA and (dst, lbl, eid, src)
// for IPA/ISA.
func (c *checker) scanEA() (expectedOut, expectedIn map[adjKey]int) {
	expectedOut = map[adjKey]int{}
	expectedIn = map[adjKey]int{}
	_ = c.tx.Scan(TableEA, func(rid rel.RowID, vals []rel.Value) bool {
		eid := vals[eaEID].Int()
		src := vals[eaINV].Int()
		dst := vals[eaOUTV].Int()
		lbl := vals[eaLBL].Str()
		for _, ep := range []struct {
			v    int64
			role string
		}{{src, "source"}, {dst, "target"}} {
			if !c.live[ep.v] {
				if c.deleted[ep.v] {
					c.addf("EA_ENDPOINT_DEAD", "edge %d %s vertex %d is soft-deleted", eid, ep.role, ep.v)
				} else {
					c.addf("EA_ENDPOINT_MISSING", "edge %d %s vertex %d has no VA row", eid, ep.role, ep.v)
				}
			}
		}
		c.checkJSON("JSON_BAD", vals[eaATTR], fmt.Sprintf("EA row for edge %d", eid))
		expectedOut[adjKey{src, lbl, eid, dst}]++
		expectedIn[adjKey{dst, lbl, eid, src}]++
		return true
	})
	return expectedOut, expectedIn
}

// checkSide validates one adjacency side (primary + secondary) against
// the entries EA says it must hold.
func (c *checker) checkSide(outgoing bool, expected map[adjKey]int) {
	primary, secondary, _, cols, colFor := c.s.sideTables(outgoing)

	type lidOwner struct {
		vid   int64
		label string
	}
	actual := map[adjKey]int{}
	lidOwners := map[int64]lidOwner{}
	deadLids := map[int64]bool{} // lids owned by negated rows: excluded from matching
	rowsPerVID := map[int64]int{}
	spillPerVID := map[int64][]int64{}
	labelsSeen := map[int64]map[string]bool{}

	_ = c.tx.Scan(primary, func(rid rel.RowID, vals []rel.Value) bool {
		vid := vals[adjVID].Int()
		if vid < 0 {
			orig := -vid - 1
			if !c.deleted[orig] {
				c.addf("NEG_ROW_NOT_DELETED", "%s row for negated vertex %d has no soft-deleted VA row", primary, orig)
			}
			// Register its lids so their secondary rows are attributed
			// (they await Vacuum, not a live match).
			for k := 0; k < cols; k++ {
				if vals[adjLBL(k)].IsNull() || !vals[adjEID(k)].IsNull() {
					continue
				}
				if val := vals[adjVAL(k)]; !val.IsNull() && val.Int() < 0 {
					lid := val.Int()
					if _, dup := lidOwners[lid]; dup {
						c.addf("LID_SHARED", "lid %d owned by more than one %s cell", lid, primary)
					}
					lidOwners[lid] = lidOwner{vid: orig, label: vals[adjLBL(k)].Str()}
					deadLids[lid] = true
				}
			}
			return true
		}
		if !c.live[vid] {
			c.addf("ADJ_VID_UNKNOWN", "%s row for vertex %d which has no live VA row", primary, vid)
		}
		rowsPerVID[vid]++
		spillPerVID[vid] = append(spillPerVID[vid], vals[adjSPILL].Int())
		if labelsSeen[vid] == nil {
			labelsSeen[vid] = map[string]bool{}
		}
		for k := 0; k < cols; k++ {
			eidV, lblV, valV := vals[adjEID(k)], vals[adjLBL(k)], vals[adjVAL(k)]
			if lblV.IsNull() {
				if !eidV.IsNull() || !valV.IsNull() {
					c.addf("CELL_MALFORMED", "%s vertex %d col %d: empty label with non-null eid/val", primary, vid, k)
				}
				continue
			}
			label := lblV.Str()
			if labelsSeen[vid][label] {
				c.addf("DUP_LABEL_CELL", "%s vertex %d: label %q occupies more than one cell", primary, vid, label)
			}
			labelsSeen[vid][label] = true
			if want := colFor(label); want != k {
				c.addf("CELL_WRONG_COLUMN", "%s vertex %d: label %q in col %d, hash says %d", primary, vid, label, k, want)
			}
			if valV.IsNull() {
				c.addf("CELL_MALFORMED", "%s vertex %d col %d: label %q with null val", primary, vid, k, label)
				continue
			}
			if eidV.IsNull() {
				// Multi-valued: val is the (negative) list id.
				lid := valV.Int()
				if lid >= 0 {
					c.addf("CELL_MALFORMED", "%s vertex %d col %d: multi-valued cell with non-negative lid %d", primary, vid, k, lid)
					continue
				}
				if _, dup := lidOwners[lid]; dup {
					c.addf("LID_SHARED", "lid %d owned by more than one %s cell", lid, primary)
				}
				lidOwners[lid] = lidOwner{vid: vid, label: label}
				continue
			}
			actual[adjKey{vid, label, eidV.Int(), valV.Int()}]++
		}
		return true
	})

	// Spill flags: an only row carries 0, every row of a multi-row vertex
	// carries 1.
	for vid, spills := range spillPerVID {
		if rowsPerVID[vid] == 1 {
			if spills[0] != 0 {
				c.addf("SPILL_WRONG", "%s vertex %d: single row with SPILL=%d", primary, vid, spills[0])
			}
			continue
		}
		for _, sp := range spills {
			if sp != 1 {
				c.addf("SPILL_WRONG", "%s vertex %d: %d rows but a row has SPILL=%d", primary, vid, rowsPerVID[vid], sp)
			}
		}
	}

	// Secondary rows fold into the owning cell's entries.
	lidRows := map[int64]int{}
	_ = c.tx.Scan(secondary, func(rid rel.RowID, vals []rel.Value) bool {
		lid := vals[secVALID].Int()
		owner, ok := lidOwners[lid]
		if !ok {
			c.addf("SEC_ORPHAN", "%s row (lid %d, eid %d) owned by no %s cell", secondary, lid, vals[secEID].Int(), primary)
			return true
		}
		lidRows[lid]++
		if deadLids[lid] {
			return true // belongs to a negated row; Vacuum will reap it
		}
		actual[adjKey{owner.vid, owner.label, vals[secEID].Int(), vals[secVAL].Int()}]++
		return true
	})
	for lid, owner := range lidOwners {
		if lidRows[lid] == 0 {
			c.addf("LID_EMPTY", "%s cell (vertex %d, label %q) references lid %d with no %s rows", primary, owner.vid, owner.label, lid, secondary)
		}
	}

	// Match the two views. Missing entries are always violations; extra
	// entries are legal only as DeletePaperSoft's documented dangling
	// references to soft-deleted neighbors.
	for key, want := range expected {
		if actual[key] < want {
			c.addf("ADJ_MISSING", "%s: edge %d (vertex %d -[%s]-> %d) has no cell", primary, key.eid, key.vid, key.label, key.val)
		}
	}
	for key, got := range actual {
		want := expected[key]
		if got <= want {
			continue
		}
		if c.s.opts.DeleteMode == DeletePaperSoft && c.deleted[key.val] && want == 0 {
			continue
		}
		c.addf("ADJ_DANGLING", "%s: cell for edge %d (vertex %d -[%s]-> %d) has no EA row", primary, key.eid, key.vid, key.label, key.val)
	}
}
