// Package wal implements the durability substrate for the graph store: a
// binary write-ahead log of logical graph mutations plus periodic
// snapshots of the full relational catalog.
//
// The paper's hybrid schema deliberately duplicates adjacency between EA
// and the OPA/IPA hash tables, and every update runs as a multi-table
// stored procedure (Section 4.5.2). Logging the *logical* operation —
// rather than physical table changes — keeps records small and makes
// recovery independent of row ids and hash-table layout: replay simply
// re-runs the stored procedures, which rebuild every redundant
// representation consistently.
//
// The store applies a Record on every path — a live mutation, recovery
// and a follower — through one function that parses the record's JSON
// document and stores the parsed form, so the primary holds exactly what
// replay rebuilds. A Record is therefore the mutation itself, not a
// description of one applied some other way.
//
// Log format: a sequence of frames, each
//
//	[4-byte little-endian payload length][4-byte CRC32 (IEEE) of payload][payload]
//
// The payload is a varint LSN, an opcode byte, and opcode-specific fields
// (zigzag varints for ids, length-prefixed strings for labels/keys/JSON).
// LSNs increase by one per record. Recovery truncates a torn final frame
// (partial write at the tail) but treats an invalid frame followed by
// valid data as corruption.
package wal

import (
	"encoding/binary"
	"fmt"

	"sqlgraph/internal/sqljson"
)

// OpKind enumerates the logical graph mutations the log records. The
// values are part of the on-disk format; never renumber them.
type OpKind uint8

// Opcodes.
const (
	OpAddVertex OpKind = iota + 1
	OpAddEdge
	OpRemoveEdge
	OpRemoveVertex
	OpSetVertexAttr
	OpRemoveVertexAttr
	OpSetEdgeAttr
	OpRemoveEdgeAttr
	OpVacuum
)

// OpHeartbeat is a wire-only opcode: replication streams emit it while
// idle so followers learn the primary's current LSN and that the link is
// alive. Record.LSN carries the primary's last assigned LSN; heartbeats
// are never written to a log file and never applied.
const OpHeartbeat OpKind = 255

// String returns the opcode's name.
func (op OpKind) String() string {
	switch op {
	case OpAddVertex:
		return "AddVertex"
	case OpAddEdge:
		return "AddEdge"
	case OpRemoveEdge:
		return "RemoveEdge"
	case OpRemoveVertex:
		return "RemoveVertex"
	case OpSetVertexAttr:
		return "SetVertexAttr"
	case OpRemoveVertexAttr:
		return "RemoveVertexAttr"
	case OpSetEdgeAttr:
		return "SetEdgeAttr"
	case OpRemoveEdgeAttr:
		return "RemoveEdgeAttr"
	case OpVacuum:
		return "Vacuum"
	case OpHeartbeat:
		return "Heartbeat"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(op))
	}
}

// Record is one logical graph mutation. Field usage by opcode:
//
//	AddVertex                  ID, Doc (attribute JSON object)
//	AddEdge                    ID, Out, In, Label, Doc
//	RemoveEdge, RemoveVertex   ID
//	Set{Vertex,Edge}Attr       ID, Key, Doc (the value wrapped as {"v": ...})
//	Remove{Vertex,Edge}Attr    ID, Key
//	Vacuum                     —
type Record struct {
	LSN     uint64
	Op      OpKind
	ID      int64
	Out, In int64
	Label   string
	Key     string
	Doc     string
}

func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64((v<<1)^(v>>63)))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// encodePayload appends the record's payload (frame header excluded).
func (r *Record) encodePayload(b []byte) []byte {
	b = binary.AppendUvarint(b, r.LSN)
	b = append(b, byte(r.Op))
	switch r.Op {
	case OpAddVertex:
		b = appendZigzag(b, r.ID)
		b = appendString(b, r.Doc)
	case OpAddEdge:
		b = appendZigzag(b, r.ID)
		b = appendZigzag(b, r.Out)
		b = appendZigzag(b, r.In)
		b = appendString(b, r.Label)
		b = appendString(b, r.Doc)
	case OpRemoveEdge, OpRemoveVertex:
		b = appendZigzag(b, r.ID)
	case OpSetVertexAttr, OpSetEdgeAttr:
		b = appendZigzag(b, r.ID)
		b = appendString(b, r.Key)
		b = appendString(b, r.Doc)
	case OpRemoveVertexAttr, OpRemoveEdgeAttr:
		b = appendZigzag(b, r.ID)
		b = appendString(b, r.Key)
	case OpVacuum, OpHeartbeat:
	}
	return b
}

// byteReader decodes the varint/string primitives with bounds checks; any
// overrun or malformed varint sets bad and yields zero values, so decoders
// are total functions over arbitrary bytes (the recovery fuzzer feeds them
// garbage).
type byteReader struct {
	b    []byte
	off  int
	bad  bool
	docs *sqljson.Bulk // where a snapshot's documents are built
}

func (r *byteReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

func (r *byteReader) zigzag() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *byteReader) byte() byte {
	if r.off >= len(r.b) {
		r.bad = true
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *byteReader) str() string {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.b)-r.off) {
		r.bad = true
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// decodeRecord parses one payload. The whole payload must be consumed.
func decodeRecord(p []byte) (Record, error) {
	r := &byteReader{b: p}
	var rec Record
	rec.LSN = r.uvarint()
	rec.Op = OpKind(r.byte())
	switch rec.Op {
	case OpAddVertex:
		rec.ID = r.zigzag()
		rec.Doc = r.str()
	case OpAddEdge:
		rec.ID = r.zigzag()
		rec.Out = r.zigzag()
		rec.In = r.zigzag()
		rec.Label = r.str()
		rec.Doc = r.str()
	case OpRemoveEdge, OpRemoveVertex:
		rec.ID = r.zigzag()
	case OpSetVertexAttr, OpSetEdgeAttr:
		rec.ID = r.zigzag()
		rec.Key = r.str()
		rec.Doc = r.str()
	case OpRemoveVertexAttr, OpRemoveEdgeAttr:
		rec.ID = r.zigzag()
		rec.Key = r.str()
	case OpVacuum, OpHeartbeat:
	default:
		return rec, fmt.Errorf("wal: unknown opcode %d", uint8(rec.Op))
	}
	if r.bad {
		return rec, fmt.Errorf("wal: truncated %s payload", rec.Op)
	}
	if r.off != len(p) {
		return rec, fmt.Errorf("wal: %d trailing bytes after %s payload", len(p)-r.off, rec.Op)
	}
	return rec, nil
}
