package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sqljson"
)

// Snapshot is a full dump of the store: configuration, the label-to-column
// assignments (which must survive restarts, or recovered adjacency rows
// would disagree with the column the translator probes), the list-id
// allocator, and every row of every table. The file is written atomically
// (temp + rename) and carries a trailing CRC over the whole payload, so a
// crash mid-snapshot leaves the previous snapshot intact and a damaged
// file is detected rather than loaded. Checkpoints never build this value:
// they stream rows through a SnapshotWriter, passing a Snapshot without
// Tables as the header; only decoding fills Tables in.
type Snapshot struct {
	// LastLSN is the last log record whose effects the dump includes;
	// recovery replays only records after it.
	LastLSN    uint64
	OutCols    int
	InCols     int
	Coloring   int
	DeleteMode int
	NextLID    int64
	OutAssign  map[string]int
	InAssign   map[string]int
	Tables     map[string][][]rel.Value
}

const snapMagic = "SQLGSNP1"

// Value tags of the snapshot row codec.
const (
	tagNull byte = iota
	tagBool
	tagInt
	tagFloat
	tagString
	tagJSON
	tagList
)

func appendValue(b []byte, v rel.Value) ([]byte, error) {
	switch v.Kind() {
	case rel.KindNull:
		return append(b, tagNull), nil
	case rel.KindBool:
		b = append(b, tagBool)
		if v.Bool() {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	case rel.KindInt:
		return appendZigzag(append(b, tagInt), v.Int()), nil
	case rel.KindFloat:
		b = append(b, tagFloat)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float())), nil
	case rel.KindString:
		return appendString(append(b, tagString), v.Str()), nil
	case rel.KindJSON:
		// A length-prefixed string like tagString's, rendered in place:
		// the text goes in first, then moves up to admit its length.
		b = append(b, tagJSON)
		at := len(b)
		b = v.JSON().AppendJSON(b)
		var pre [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(pre[:], uint64(len(b)-at))
		b = append(b, pre[:k]...)
		copy(b[at+k:], b[at:len(b)-k])
		copy(b[at:], pre[:k])
		return b, nil
	case rel.KindList:
		list := v.List()
		b = binary.AppendUvarint(append(b, tagList), uint64(len(list)))
		var err error
		for _, e := range list {
			if b, err = appendValue(b, e); err != nil {
				return nil, err
			}
		}
		return b, nil
	default:
		return nil, fmt.Errorf("wal: snapshot: unsupported value kind %v", v.Kind())
	}
}

func (r *byteReader) value() rel.Value {
	switch r.byte() {
	case tagNull:
		return rel.Null
	case tagBool:
		return rel.NewBool(r.byte() != 0)
	case tagInt:
		return rel.NewInt(r.zigzag())
	case tagFloat:
		if len(r.b)-r.off < 8 {
			r.bad = true
			return rel.Null
		}
		bits := binary.LittleEndian.Uint64(r.b[r.off:])
		r.off += 8
		return rel.NewFloat(math.Float64frombits(bits))
	case tagString:
		return rel.NewString(r.str())
	case tagJSON:
		s := r.str()
		if r.bad {
			return rel.Null
		}
		doc, err := r.docs.Parse(s)
		if err != nil {
			r.bad = true
			return rel.Null
		}
		return rel.NewJSON(&doc)
	case tagList:
		n := r.uvarint()
		if r.bad || n > uint64(len(r.b)-r.off) {
			r.bad = true
			return rel.Null
		}
		list := make([]rel.Value, 0, n)
		for i := uint64(0); i < n && !r.bad; i++ {
			list = append(list, r.value())
		}
		return rel.NewList(list)
	default:
		r.bad = true
		return rel.Null
	}
}

func appendAssign(b []byte, m map[string]int) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(b, k)
		b = binary.AppendUvarint(b, uint64(m[k]))
	}
	return b
}

func (r *byteReader) assign() map[string]int {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.b)-r.off) {
		r.bad = true
		return nil
	}
	m := make(map[string]int, n)
	for i := uint64(0); i < n && !r.bad; i++ {
		k := r.str()
		m[k] = int(r.uvarint())
	}
	return m
}

// SnapshotWriter streams a snapshot in format v1 — the byte sequence
// decodeSnapshot reads — without ever holding the encoded file in
// memory: the header up front, then per table its name, row count and
// rows, with a running CRC written as the trailer. Each table's row
// count precedes its rows in the format, so the caller declares it at
// BeginTable and Close fails if the rows written disagree.
type SnapshotWriter struct {
	w      *bufio.Writer
	crc    hash.Hash32
	buf    []byte // one row's encoding, reused
	n      int64  // bytes written so far
	rows   int64  // total rows written
	tables int    // tables still owed
	owed   uint64 // rows still owed to the current table
	err    error
}

// NewSnapshotWriter writes the header (hdr.Tables is ignored) and
// announces how many tables follow.
func NewSnapshotWriter(w io.Writer, hdr *Snapshot, tables int) *SnapshotWriter {
	sw := &SnapshotWriter{w: bufio.NewWriterSize(w, 1<<16), crc: crc32.NewIEEE(), tables: tables}
	if _, err := sw.w.WriteString(snapMagic); err != nil {
		sw.err = err
	}
	sw.n = int64(len(snapMagic))
	b := binary.AppendUvarint(sw.buf, 1) // format version
	b = binary.AppendUvarint(b, hdr.LastLSN)
	b = binary.AppendUvarint(b, uint64(hdr.OutCols))
	b = binary.AppendUvarint(b, uint64(hdr.InCols))
	b = append(b, byte(hdr.Coloring), byte(hdr.DeleteMode))
	b = appendZigzag(b, hdr.NextLID)
	b = appendAssign(b, hdr.OutAssign)
	b = appendAssign(b, hdr.InAssign)
	b = binary.AppendUvarint(b, uint64(tables))
	sw.write(b)
	return sw
}

// write sends checksummed payload bytes downstream and keeps b's
// backing array as the scratch buffer.
func (sw *SnapshotWriter) write(b []byte) {
	sw.buf = b[:0]
	if sw.err != nil {
		return
	}
	sw.crc.Write(b)
	sw.n += int64(len(b))
	_, sw.err = sw.w.Write(b)
}

// BeginTable starts the next table, which will hold exactly rows rows.
// The decoder accepts tables in any order; writing them sorted by name
// keeps the file a function of the store's contents.
func (sw *SnapshotWriter) BeginTable(name string, rows int) {
	if sw.err == nil && (sw.owed != 0 || sw.tables == 0) {
		sw.err = fmt.Errorf("wal: snapshot: table %s begun with %d rows and %d tables still owed", name, sw.owed, sw.tables)
	}
	sw.tables--
	sw.owed = uint64(rows)
	sw.write(binary.AppendUvarint(appendString(sw.buf, name), sw.owed))
}

// WriteRow appends one row to the current table.
func (sw *SnapshotWriter) WriteRow(vals []rel.Value) error {
	b := binary.AppendUvarint(sw.buf, uint64(len(vals)))
	for _, v := range vals {
		var err error
		if b, err = appendValue(b, v); err != nil {
			sw.err = err
			return err
		}
	}
	sw.owed--
	sw.rows++
	sw.write(b)
	return sw.err
}

// Rows reports how many rows have been written.
func (sw *SnapshotWriter) Rows() int64 { return sw.rows }

// Close writes the CRC trailer and flushes, returning the total size of
// the encoded snapshot. It fails if a declared table or row is missing:
// such a file would decode as corrupt.
func (sw *SnapshotWriter) Close() (int64, error) {
	if sw.err == nil && (sw.owed != 0 || sw.tables != 0) {
		// owed wraps below zero when a table received more rows than declared.
		sw.err = fmt.Errorf("wal: snapshot: closed with %d rows and %d tables still owed", int64(sw.owed), sw.tables)
	}
	if sw.err != nil {
		return sw.n, sw.err
	}
	if _, err := sw.w.Write(binary.LittleEndian.AppendUint32(nil, sw.crc.Sum32())); err != nil {
		return sw.n, err
	}
	return sw.n + 4, sw.w.Flush()
}

func decodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: snapshot: bad magic", ErrCorrupt)
	}
	payload := data[len(snapMagic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(data[len(snapMagic):len(data)-4]) != want {
		return nil, fmt.Errorf("%w: snapshot: checksum mismatch", ErrCorrupt)
	}
	// The documents restored are packed into shared chunks in the order
	// they are read, which is each table's slot order.
	r := &byteReader{b: payload, docs: new(sqljson.Bulk)}
	if v := r.uvarint(); v != 1 {
		return nil, fmt.Errorf("%w: snapshot: unsupported version %d", ErrCorrupt, v)
	}
	s := &Snapshot{Tables: map[string][][]rel.Value{}}
	s.LastLSN = r.uvarint()
	s.OutCols = int(r.uvarint())
	s.InCols = int(r.uvarint())
	s.Coloring = int(r.byte())
	s.DeleteMode = int(r.byte())
	s.NextLID = r.zigzag()
	s.OutAssign = r.assign()
	s.InAssign = r.assign()
	ntables := r.uvarint()
	if r.bad || ntables > uint64(len(payload)) {
		return nil, fmt.Errorf("%w: snapshot: malformed header", ErrCorrupt)
	}
	for t := uint64(0); t < ntables; t++ {
		name := r.str()
		nrows := r.uvarint()
		if r.bad || nrows > uint64(len(payload)) {
			return nil, fmt.Errorf("%w: snapshot: malformed table %q", ErrCorrupt, name)
		}
		rows := make([][]rel.Value, 0, nrows)
		for i := uint64(0); i < nrows; i++ {
			ncols := r.uvarint()
			if r.bad || ncols > uint64(len(payload)) {
				break
			}
			row := make([]rel.Value, 0, ncols)
			for c := uint64(0); c < ncols && !r.bad; c++ {
				row = append(row, r.value())
			}
			rows = append(rows, row)
		}
		if r.bad {
			return nil, fmt.Errorf("%w: snapshot: malformed rows in table %q", ErrCorrupt, name)
		}
		s.Tables[name] = rows
	}
	if r.bad || r.off != len(payload) {
		return nil, fmt.Errorf("%w: snapshot: trailing garbage", ErrCorrupt)
	}
	return s, nil
}

// writeSnapshotBytes installs already-encoded snapshot bytes (received
// over the wire by replication bootstrap) into a directory no log is open
// on: temp file, fsync, rename, directory fsync (best effort).
func writeSnapshotBytes(dir string, data []byte) error {
	tmp := filepath.Join(dir, tmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	syncDir(dir)
	return nil
}

// readSnapshotFile loads a snapshot, returning (nil, nil) when the file
// does not exist.
func readSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot: %w", err)
	}
	return decodeSnapshot(data)
}
