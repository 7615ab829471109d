package wal

// The replication wire format is the log format: a stream of
// checksummed frames ([len][crc32][payload]) identical to what Append
// writes to disk. This file is the public reader/apply surface shared
// by follower replicas, point-in-time restore, and future CDC
// consumers: TailReader iterates a live log file from an LSN (following
// appends and surviving checkpoint truncation), StreamReader parses
// frames incrementally off any io.Reader (an HTTP response body on the
// replica receive path), and InstallSnapshot bootstraps a fresh
// directory from a primary's encoded snapshot.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// ErrGap reports that a requested LSN is no longer available from the
// log: a checkpoint folded it into the snapshot. The consumer must
// re-bootstrap from a snapshot instead of tailing.
var ErrGap = errors.New("wal: requested LSN no longer in log")

// ErrTornStream reports a frame stream that ended mid-frame — the
// sender died or the connection was cut. The consumer's position is
// still a clean frame boundary; it can resume from its last applied
// LSN.
var ErrTornStream = errors.New("wal: stream cut mid-frame")

// AppendWireFrame appends rec encoded as one checksummed frame to b.
// The format is byte-identical to the on-disk log, so a follower can
// verify and apply streamed frames with the same code that recovers a
// local log.
func AppendWireFrame(b []byte, rec Record) []byte {
	payload := rec.encodePayload(nil)
	var hdr [8]byte
	putFrameHeader(hdr[:], payload)
	b = append(b, hdr[:]...)
	return append(b, payload...)
}

// StreamReader incrementally parses frames off an io.Reader, verifying
// each frame's checksum before decoding.
type StreamReader struct {
	r io.Reader
}

// NewStreamReader wraps r (typically a streaming HTTP response body).
func NewStreamReader(r io.Reader) *StreamReader { return &StreamReader{r: r} }

// Next reads one frame. It returns io.EOF when the stream ends exactly
// on a frame boundary, an ErrTornStream-wrapped error when it ends
// mid-frame, and an ErrCorrupt-wrapped error when a complete frame
// fails checksum or decode validation. Transport errors pass through
// unwrapped.
func (sr *StreamReader) Next() (Record, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(sr.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Record{}, fmt.Errorf("%w: truncated frame header", ErrTornStream)
		}
		return Record{}, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:]))
	wantCRC := binary.LittleEndian.Uint32(hdr[4:])
	if n > maxRecord {
		return Record{}, fmt.Errorf("%w: implausible frame length %d", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(sr.r, payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Record{}, fmt.Errorf("%w: truncated frame payload", ErrTornStream)
		}
		return Record{}, err
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return Record{}, fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return rec, nil
}

// maxTailBatch bounds how many bytes one TailReader.Next call reads, so
// a follower far behind a large log streams in chunks instead of
// buffering the whole file.
const maxTailBatch = 1 << 20

// TailReader iterates the valid frames of a live log file starting at a
// given LSN. It tolerates concurrent appends (a partially written final
// frame is simply not ready yet) and checkpoints: a checkpoint replaces
// wal.log with a new file holding the records after its snapshot, and a
// reader that has drained the file it holds open moves on to the one now
// at the path. Because the replacement keeps that tail, a reader near the
// head crosses any number of checkpoints without a gap; ErrGap is
// reported only when the wanted LSN has been folded into the snapshot and
// can never appear.
type TailReader struct {
	path     string
	snapPath string
	f        *os.File
	off      int64
	next     uint64 // next LSN to deliver
}

// OpenTail positions a reader over dir's log at from (0 is treated as
// 1, the first LSN ever). It fails with ErrGap immediately when dir's
// snapshot already covers from.
func OpenTail(dir string, from uint64) (*TailReader, error) {
	if from == 0 {
		from = 1
	}
	t := &TailReader{
		path:     filepath.Join(dir, logName),
		snapPath: filepath.Join(dir, snapName),
		next:     from,
	}
	if err := t.checkGap(); err != nil {
		return nil, err
	}
	return t, nil
}

// checkGap fails when the snapshot already covers the wanted LSN: the
// log starts after the snapshot, so that LSN can never be read from it.
func (t *TailReader) checkGap() error {
	snapLSN, err := ReadSnapshotLSN(t.snapPath)
	if err != nil {
		return err
	}
	if t.next <= snapLSN {
		return fmt.Errorf("%w: want LSN %d but the snapshot covers through %d", ErrGap, t.next, snapLSN)
	}
	return nil
}

// Next returns the raw bytes and descriptions of the frames available
// since the last call (nil, nil, nil when caught up — poll again
// later). The byte slice is a valid frame stream: it can be written to
// a wire verbatim. Mid-log corruption or a gap returns an error; the
// reader is then unusable.
func (t *TailReader) Next() ([]byte, []FrameInfo, error) {
	if t.f == nil {
		f, err := os.Open(t.path)
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil, nil // nothing logged yet
		}
		if err != nil {
			return nil, nil, err
		}
		t.f = f
	}
	var size int64
	for {
		st, err := t.f.Stat()
		if err != nil {
			return nil, nil, err
		}
		size = st.Size()
		if size > t.off {
			break
		}
		if size == t.off {
			// Drained. The file is final if a checkpoint has put another at
			// the path; once nothing was added to it before that, follow.
			if cur, err := os.Stat(t.path); err != nil || os.SameFile(st, cur) {
				return nil, nil, nil // caught up (a missing path: mid-swap, poll again)
			}
			if st, err = t.f.Stat(); err != nil {
				return nil, nil, err
			}
			if size = st.Size(); size > t.off {
				break
			}
			f, err := os.Open(t.path)
			if err != nil {
				return nil, nil, err
			}
			t.f.Close()
			t.f = f
		}
		// A replaced file, or one Open restarted in place because the
		// snapshot covered all of it: rescan from the top (frames already
		// delivered are skipped) — and re-check that the wanted LSN wasn't
		// folded into the snapshot.
		t.off = 0
		if err := t.checkGap(); err != nil {
			return nil, nil, err
		}
	}
	n := size - t.off
	if n > maxTailBatch {
		n = maxTailBatch
	}
	buf := make([]byte, n)
	m, err := t.f.ReadAt(buf, t.off)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, nil, err
	}
	// t.off is always a frame boundary, so this is a valid log segment;
	// a frame cut short by the batch bound or an in-flight append parses
	// as a torn tail and is retried next call.
	frames, goodOff, _, err := scanLog(buf[:m])
	if err != nil {
		return nil, nil, err
	}
	var out []byte
	var infos []FrameInfo
	for _, fr := range frames {
		if fr.rec.LSN < t.next {
			continue // already delivered (or predates from)
		}
		if fr.rec.LSN != t.next {
			return nil, nil, fmt.Errorf("%w: want LSN %d, log resumes at %d", ErrGap, t.next, fr.rec.LSN)
		}
		out = append(out, buf[fr.offset:fr.offset+fr.size]...)
		infos = append(infos, FrameInfo{Offset: fr.offset, Size: fr.size, LSN: fr.rec.LSN, Op: fr.rec.Op})
		t.next++
	}
	t.off += int64(goodOff)
	return out, infos, nil
}

// NextLSN reports the next LSN the reader will deliver.
func (t *TailReader) NextLSN() uint64 { return t.next }

// Close releases the underlying file handle.
func (t *TailReader) Close() error {
	if t.f != nil {
		return t.f.Close()
	}
	return nil
}

// ReadSnapshotLSN reports the LastLSN recorded in a snapshot file
// header (0 when the file does not exist). It parses only the header,
// so it is cheap even for large snapshots; the atomic temp+rename write
// protocol guarantees the header is never half-written.
func ReadSnapshotLSN(path string) (uint64, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: snapshot header: %w", err)
	}
	defer f.Close()
	var hdr [len(snapMagic) + 2*binary.MaxVarintLen64]byte
	n, err := f.Read(hdr[:])
	if err != nil && !errors.Is(err, io.EOF) {
		return 0, fmt.Errorf("wal: snapshot header: %w", err)
	}
	if n < len(snapMagic) || string(hdr[:len(snapMagic)]) != snapMagic {
		return 0, fmt.Errorf("%w: snapshot: bad magic", ErrCorrupt)
	}
	r := &byteReader{b: hdr[len(snapMagic):n]}
	if v := r.uvarint(); v != 1 {
		return 0, fmt.Errorf("%w: snapshot: unsupported version %d", ErrCorrupt, v)
	}
	lsn := r.uvarint()
	if r.bad {
		return 0, fmt.Errorf("%w: snapshot: truncated header", ErrCorrupt)
	}
	return lsn, nil
}

// DecodeSnapshotBytes validates and parses an encoded snapshot.
func DecodeSnapshotBytes(data []byte) (*Snapshot, error) { return decodeSnapshot(data) }

// InstallSnapshot validates an encoded snapshot and installs it into
// dir as the authoritative state: the snapshot file is written
// atomically (temp + fsync + rename) and any existing log is removed,
// since its records predate the snapshot. A crash between the rename
// and the log removal is safe — recovery drops log records the
// snapshot already covers. Opening the directory afterwards yields a
// store at exactly the snapshot's LSN.
func InstallSnapshot(dir string, data []byte) (*Snapshot, error) {
	snap, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: install snapshot: %w", err)
	}
	if err := writeSnapshotBytes(dir, data); err != nil {
		return nil, err
	}
	if err := os.Remove(filepath.Join(dir, logName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("wal: install snapshot: %w", err)
	}
	return snap, nil
}
