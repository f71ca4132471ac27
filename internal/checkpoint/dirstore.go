package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"repro/internal/faultinject"
	"repro/internal/wire"
)

// Store-open errors.
var (
	// ErrStoreLocked reports a directory whose log another DirStore — in
	// this process or another — holds open. The index lives in memory, so a
	// directory has one writer at a time.
	ErrStoreLocked = errors.New("checkpoint: store directory is open elsewhere")
	// ErrLegacyStore reports a directory in the one-file-per-label layout
	// (*.ckpt files and no log). It is refused rather than read as empty.
	ErrLegacyStore = errors.New("checkpoint: store directory is in the one-file-per-label layout")
)

// The log is a sequence of records, nothing before or between them:
//
//	u8 kind | u16be len(label) | u32be len(data) | label | data | u32be CRC-32C
//
// The checksum covers every byte of the record before it.
const (
	logName    = "store.log"
	logTmpName = "store.log.tmp"

	recSave   = 1
	recDelete = 2 // tombstone: no data

	recHeader  = 1 + 2 + 4
	recTrailer = 4
	maxLabel   = 1<<16 - 1
	maxData    = 1<<32 - 1

	// The log is rewritten once it is both at least compactMinLog bytes and
	// at least compactRatio times the bytes of its live records, so a save
	// pays amortised O(1) for compaction.
	compactMinLog = 1 << 20
	compactRatio  = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// span locates one whole record in the log.
type span struct{ off, size int64 }

// DirStore is a file-backed Store: one append-only log of checksummed
// records in dir plus an in-memory index from label to the label's latest
// record. A save is one write of one record, so a kill at any instruction
// boundary leaves a log whose last record is whole, short or absent; open
// cuts the log at the first record that is short or fails its checksum,
// which leaves every label at its previous value or its new one (the
// crash-recovery suite injects kills on both sides of the write and of the
// compaction rename to prove it). Nothing is fsynced: the contents survive
// the death of the process, not of the machine.
type DirStore struct {
	dir string

	mu         sync.Mutex
	f          *os.File // the locked log
	size       int64    // end of the last whole record; the next one goes here
	live       int64    // bytes of the records the index points at
	minCompact int64    // compactMinLog, raised after a failed compaction
	index      map[string]span
	buf        []byte // one record being framed
}

// NewDirStore opens the store in dir, creating the directory and an empty
// log as needed, and takes the directory's writer lock: a second open fails
// with ErrStoreLocked until Close.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	f, err := openLog(dir)
	if err != nil {
		return nil, err
	}
	d := &DirStore{dir: dir, f: f, minCompact: compactMinLog, index: make(map[string]span)}
	if err := d.scan(); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// openLog opens and locks dir's log.
func openLog(dir string) (*os.File, error) {
	path := filepath.Join(dir, logName)
	for {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if errors.Is(err, fs.ErrNotExist) {
			ents, derr := os.ReadDir(dir)
			if derr != nil {
				return nil, fmt.Errorf("checkpoint: %w", derr)
			}
			for _, e := range ents {
				if strings.HasSuffix(e.Name(), ".ckpt") {
					return nil, fmt.Errorf("%w: %s", ErrLegacyStore, dir)
				}
			}
			f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		}
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		if err := lock(f); err != nil {
			f.Close()
			return nil, err
		}
		// A compaction renames a new file over the log. If the holder did
		// that and closed the old file between the open and the lock above,
		// the lock is on a file no longer in the directory: try again.
		held, err1 := f.Stat()
		named, err2 := os.Stat(path)
		if err := errors.Join(err1, err2); err != nil {
			f.Close()
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		if os.SameFile(held, named) {
			return f, nil
		}
		f.Close()
	}
}

// lock takes the exclusive advisory lock on f without waiting. The lock
// goes when f is closed, by Close or by the death of the process.
func lock(f *os.File) error {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return fmt.Errorf("%w: %s", ErrStoreLocked, f.Name())
	}
	if err != nil {
		return fmt.Errorf("checkpoint: locking %s: %w", f.Name(), err)
	}
	return nil
}

// scan builds the index from the log and truncates the log after its last
// whole record.
func (d *DirStore) scan() error {
	fi, err := d.f.Stat()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	r := bufio.NewReaderSize(io.NewSectionReader(d.f, 0, fi.Size()), 256<<10)
	var (
		hdr   [recHeader]byte
		sum   [recTrailer]byte
		label []byte
	)
	for {
		if _, err = io.ReadFull(r, hdr[:]); err != nil {
			break
		}
		kind, nl, nd := hdr[0], int(binary.BigEndian.Uint16(hdr[1:])), int64(binary.BigEndian.Uint32(hdr[3:]))
		size := recHeader + int64(nl) + nd + recTrailer
		if nl == 0 || !(kind == recSave || kind == recDelete && nd == 0) || d.size+size > fi.Size() {
			break
		}
		if cap(label) < nl {
			label = make([]byte, nl)
		}
		label = label[:nl]
		if _, err = io.ReadFull(r, label); err != nil {
			break
		}
		crc := crc32.Update(crc32.Update(0, castagnoli, hdr[:]), castagnoli, label)
		for left := nd; left > 0 && err == nil; {
			// Peek needs no copy and no buffer of the record's size.
			var chunk []byte
			chunk, err = r.Peek(int(min(left, int64(r.Size()))))
			crc = crc32.Update(crc, castagnoli, chunk)
			r.Discard(len(chunk)) // cannot fail: the bytes were just peeked
			left -= int64(len(chunk))
		}
		if err != nil {
			break
		}
		if _, err = io.ReadFull(r, sum[:]); err != nil || binary.BigEndian.Uint32(sum[:]) != crc {
			break
		}
		d.apply(kind, string(label), size)
	}
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return fmt.Errorf("checkpoint: reading %s: %w", d.f.Name(), err)
	}
	if d.size < fi.Size() {
		if err := d.f.Truncate(d.size); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	return nil
}

// apply moves the index over one record of size bytes at the end of the log.
func (d *DirStore) apply(kind byte, label string, size int64) {
	if old, ok := d.index[label]; ok {
		d.live -= old.size
	}
	if kind == recSave {
		d.index[label] = span{d.size, size}
		d.live += size
	} else {
		delete(d.index, label)
	}
	d.size += size
}

// Save appends data under label with one write.
func (d *DirStore) Save(label string, data []byte) error {
	return d.append(recSave, label, data)
}

// Delete appends a tombstone for label; deleting an absent label writes
// nothing.
func (d *DirStore) Delete(label string) error {
	return d.append(recDelete, label, nil)
}

func (d *DirStore) append(kind byte, label string, data []byte) error {
	if label == "" || len(label) > maxLabel {
		return fmt.Errorf("checkpoint: invalid label %q", label)
	}
	if int64(len(data)) > maxData {
		return fmt.Errorf("checkpoint: label %q: %d bytes is more than a record holds", label, len(data))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.index[label]; kind == recDelete && !ok {
		return nil
	}
	n := recHeader + len(label) + len(data) + recTrailer
	d.buf = wire.Grow(d.buf, n)
	b := d.buf
	b[0] = kind
	binary.BigEndian.PutUint16(b[1:], uint16(len(label)))
	binary.BigEndian.PutUint32(b[3:], uint32(len(data)))
	copy(b[recHeader:], label)
	copy(b[recHeader+len(label):], data)
	binary.BigEndian.PutUint32(b[n-recTrailer:], crc32.Checksum(b[:n-recTrailer], castagnoli))

	faultinject.CrashPoint("ckpt-pre-write")
	// The index and the write position move only once the write returned, so
	// the next record overwrites whatever a failed write left behind.
	if _, err := d.f.WriteAt(b, d.size); err != nil {
		_ = d.f.Truncate(d.size) // best effort: open cuts a torn tail too
		return fmt.Errorf("checkpoint: %w", err)
	}
	faultinject.CrashPoint("ckpt-post-write")
	d.apply(kind, label, int64(n))

	if d.size >= d.minCompact && d.size >= compactRatio*d.live {
		// The record is in the log whether or not the rewrite works; a
		// failure (disk full, directory removed) only postpones the next
		// attempt until the log has doubled.
		if err := d.compact(); err != nil {
			d.minCompact = 2 * d.size
		} else {
			d.minCompact = compactMinLog
		}
	}
	return nil
}

// compact rewrites the live records, in label order, to a new file and
// renames it over the log. The new file is locked before the rename, so the
// directory is never without its writer lock.
func (d *DirStore) compact() (err error) {
	tmpPath := filepath.Join(d.dir, logTmpName)
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpPath)
		}
	}()
	if err := lock(tmp); err != nil {
		return err
	}
	labels := d.labels()
	sort.Strings(labels)
	index := make(map[string]span, len(labels))
	buf := wire.Alloc(int(min(d.live, 256<<10)))
	defer wire.Free(buf)
	var off int64 // bytes of the new log written or waiting in buf
	n := 0        // bytes waiting in buf
	for _, l := range labels {
		rec := d.index[l]
		index[l] = span{off, rec.size}
		for done := int64(0); done < rec.size; {
			if n == len(buf) {
				if _, err := tmp.Write(buf); err != nil {
					return err
				}
				n = 0
			}
			m := int(min(rec.size-done, int64(len(buf)-n)))
			if _, err := d.f.ReadAt(buf[n:n+m], rec.off+done); err != nil {
				return err
			}
			n, done, off = n+m, done+int64(m), off+int64(m)
		}
	}
	if _, err := tmp.Write(buf[:n]); err != nil {
		return err
	}
	faultinject.CrashPoint("ckpt-pre-compact")
	if err := os.Rename(tmpPath, filepath.Join(d.dir, logName)); err != nil {
		return err
	}
	faultinject.CrashPoint("ckpt-post-compact")
	d.f.Close() // read and replaced: nothing of it is left to lose
	d.f, d.index, d.size = tmp, index, off
	return nil
}

// Load reads the latest record saved under label and checks it against its
// checksum.
func (d *DirStore) Load(label string) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	at, ok := d.index[label]
	if !ok {
		return nil, fmt.Errorf("checkpoint: label %q: %w", label, fs.ErrNotExist)
	}
	rec := make([]byte, at.size)
	if _, err := d.f.ReadAt(rec, at.off); err != nil {
		return nil, fmt.Errorf("checkpoint: label %q: %w", label, err)
	}
	body := rec[:len(rec)-recTrailer]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(rec[len(body):]) {
		return nil, corruptf("label %q: record at %d fails its checksum", label, at.off)
	}
	return body[recHeader+len(label) : len(body) : len(body)], nil
}

// List returns every stored label.
func (d *DirStore) List() ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.labels(), nil
}

func (d *DirStore) labels() []string {
	labels := make([]string, 0, len(d.index))
	for l := range d.index {
		labels = append(labels, l)
	}
	return labels
}

// Close releases the directory's writer lock. Saves and loads fail after
// it.
func (d *DirStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	wire.Free(d.buf)
	d.buf = nil
	if err := d.f.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}
