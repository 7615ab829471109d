package server

import (
	"fmt"
	"net/http"

	"sqlgraph/internal/core"
	"sqlgraph/internal/wal"
)

// batchOp is one operation of a POST /batch request. Exactly the fields
// its op kind needs are read; the rest are ignored.
type batchOp struct {
	Op    string         `json:"op"`
	ID    int64          `json:"id"`
	From  int64          `json:"from,omitempty"`
	To    int64          `json:"to,omitempty"`
	Label string         `json:"label,omitempty"`
	Key   string         `json:"key,omitempty"`
	Value any            `json:"value,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

type batchRequest struct {
	Ops []batchOp `json:"ops"`
}

// record converts the wire op into its WAL record.
func (o batchOp) record() (wal.Record, error) {
	switch o.Op {
	case "add_vertex":
		return core.BatchAddVertex(o.ID, o.Attrs), nil
	case "remove_vertex":
		return core.BatchRemoveVertex(o.ID), nil
	case "add_edge":
		return core.BatchAddEdge(o.ID, o.From, o.To, o.Label, o.Attrs), nil
	case "remove_edge":
		return core.BatchRemoveEdge(o.ID), nil
	case "set_vertex_attr":
		return core.BatchSetVertexAttr(o.ID, o.Key, o.Value), nil
	case "remove_vertex_attr":
		return core.BatchRemoveVertexAttr(o.ID, o.Key), nil
	case "set_edge_attr":
		return core.BatchSetEdgeAttr(o.ID, o.Key, o.Value), nil
	case "remove_edge_attr":
		return core.BatchRemoveEdgeAttr(o.ID, o.Key), nil
	default:
		return wal.Record{}, fmt.Errorf("unknown batch op %q (want add_vertex, remove_vertex, add_edge, remove_edge, set_vertex_attr, remove_vertex_attr, set_edge_attr, remove_edge_attr)", o.Op)
	}
}

// handleBatch (POST /batch) applies many mutations under one writer
// acquisition and one WAL flush via Store.ApplyBatch. The batch is
// atomic: any failing op rolls the whole request back with nothing
// applied, and the error of a multi-op batch names the offending op index.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var body batchRequest
	if !s.decode(w, r, &body) {
		return
	}
	if len(body.Ops) == 0 {
		writeError(w, http.StatusBadRequest, "batch needs at least one op")
		return
	}
	recs := make([]wal.Record, len(body.Ops))
	for i, op := range body.Ops {
		rec, err := op.record()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("op %d: %v", i, err))
			return
		}
		recs[i] = rec
	}
	s.run(w, r, func() (any, int, error) {
		if err := s.st().ApplyBatch(recs); err != nil {
			return nil, statusFor(err), err
		}
		return map[string]any{"applied": len(recs)}, http.StatusOK, nil
	})
}
