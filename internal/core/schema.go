// Package core implements the SQLGraph store itself: the paper's hybrid
// relational/JSON schema (Figure 5), the coloring-based hash assignment
// of edge labels to column triads, bulk loading, the stored-procedure
// update operations (Section 4.5.2), and Gremlin query execution through
// the SQL translation.
package core

import (
	"fmt"

	"sqlgraph/internal/rel"
)

// Table names of the paper's schema (Figure 5).
const (
	TableOPA = "OPA" // outgoing primary adjacency
	TableOSA = "OSA" // outgoing secondary adjacency (multi-valued labels)
	TableIPA = "IPA" // incoming primary adjacency
	TableISA = "ISA" // incoming secondary adjacency
	TableVA  = "VA"  // vertex attributes (JSON)
	TableEA  = "EA"  // edge attributes (JSON) + adjacency copy
)

// Index names.
const (
	IndexOPAVID   = "OPA_VID"
	IndexIPAVID   = "IPA_VID"
	IndexOSAVALID = "OSA_VALID"
	IndexISAVALID = "ISA_VALID"
	IndexVAPK     = "VA_PK"
	IndexEAPK     = "EA_PK"
	IndexEAInLbl  = "EA_INV_LBL"  // (INV, LBL): source + label, the "SP" analogue
	IndexEAOutLbl = "EA_OUTV_LBL" // (OUTV, LBL): target + label, the "OP" analogue
)

// Column-name helpers for the hash tables' triads.
func eidCol(k int) string { return fmt.Sprintf("EID%d", k) }
func lblCol(k int) string { return fmt.Sprintf("LBL%d", k) }
func valCol(k int) string { return fmt.Sprintf("VAL%d", k) }

// adjacencySchema builds the OPA/IPA schema: VID, SPILL, then cols
// triads.
func adjacencySchema(cols int) *rel.Schema {
	out := []rel.Column{
		{Name: "VID", Type: rel.KindInt},
		{Name: "SPILL", Type: rel.KindInt},
	}
	for k := 0; k < cols; k++ {
		out = append(out,
			rel.Column{Name: eidCol(k), Type: rel.KindInt},
			rel.Column{Name: lblCol(k), Type: rel.KindString},
			rel.Column{Name: valCol(k), Type: rel.KindInt},
		)
	}
	return rel.NewSchema(out...)
}

func secondarySchema() *rel.Schema {
	return rel.NewSchema(
		rel.Column{Name: "VALID", Type: rel.KindInt},
		rel.Column{Name: "EID", Type: rel.KindInt},
		rel.Column{Name: "VAL", Type: rel.KindInt},
	)
}

func vaSchema() *rel.Schema {
	return rel.NewSchema(
		rel.Column{Name: "VID", Type: rel.KindInt},
		rel.Column{Name: "ATTR", Type: rel.KindJSON},
	)
}

func eaSchema() *rel.Schema {
	return rel.NewSchema(
		rel.Column{Name: "EID", Type: rel.KindInt},
		rel.Column{Name: "INV", Type: rel.KindInt},  // source vertex (paper's naming)
		rel.Column{Name: "OUTV", Type: rel.KindInt}, // target vertex
		rel.Column{Name: "LBL", Type: rel.KindString},
		rel.Column{Name: "ATTR", Type: rel.KindJSON},
	)
}

// Ordinals into the adjacency schema.
const (
	adjVID   = 0
	adjSPILL = 1
)

func adjEID(k int) int { return 2 + 3*k }
func adjLBL(k int) int { return 2 + 3*k + 1 }
func adjVAL(k int) int { return 2 + 3*k + 2 }

// Ordinals into EA.
const (
	eaEID  = 0
	eaINV  = 1
	eaOUTV = 2
	eaLBL  = 3
	eaATTR = 4
)

// Ordinals into VA and OSA/ISA.
const (
	vaVID  = 0
	vaATTR = 1

	secVALID = 0
	secEID   = 1
	secVAL   = 2
)

// createSchema creates all tables and indexes in the catalog.
func createSchema(cat *rel.Catalog, outCols, inCols int) error {
	mk := func(name string, schema *rel.Schema) error {
		_, err := cat.CreateTable(name, schema)
		return err
	}
	if err := mk(TableOPA, adjacencySchema(outCols)); err != nil {
		return err
	}
	if err := mk(TableOSA, secondarySchema()); err != nil {
		return err
	}
	if err := mk(TableIPA, adjacencySchema(inCols)); err != nil {
		return err
	}
	if err := mk(TableISA, secondarySchema()); err != nil {
		return err
	}
	if err := mk(TableVA, vaSchema()); err != nil {
		return err
	}
	if err := mk(TableEA, eaSchema()); err != nil {
		return err
	}
	// The adjacency tables are the paper's hash tables: every read of them
	// is an equality probe on the vertex or list id (a hop, a stored
	// procedure, the (VALID, EID) lookup of an edge removal), so their id
	// indexes are hashed. VA and EA also serve ranges and stay ordered.
	type ix struct {
		name, table string
		unique      bool
		hashed      bool
		ords        []int
	}
	for _, i := range []ix{
		{IndexOPAVID, TableOPA, false, true, []int{adjVID}},
		{IndexIPAVID, TableIPA, false, true, []int{adjVID}},
		{IndexOSAVALID, TableOSA, false, true, []int{secVALID, secEID}},
		{IndexISAVALID, TableISA, false, true, []int{secVALID, secEID}},
		{IndexVAPK, TableVA, true, false, []int{vaVID}},
		{IndexEAPK, TableEA, true, false, []int{eaEID}},
		{IndexEAInLbl, TableEA, false, false, []int{eaINV, eaLBL}},
		{IndexEAOutLbl, TableEA, false, false, []int{eaOUTV, eaLBL}},
	} {
		var err error
		if i.hashed {
			_, err = cat.CreateHashIndex(i.name, i.table, i.ords)
		} else {
			_, err = cat.CreateIndex(i.name, i.table, i.unique, i.ords, "", nil)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
