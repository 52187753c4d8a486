package journal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"asti/internal/fault"
	"asti/internal/rng"
)

// walExt is the per-session log file suffix.
const walExt = ".wal"

// Store manages the per-session logs of one journal directory: one
// `<session-id>.wal` file per session. A Store is safe for concurrent
// use; each session's Writer serializes its own appends.
type Store struct {
	dir     string
	retry   RetryPolicy
	metrics storeMetrics
}

// Open returns a store over dir, creating the directory if needed.
// Writers created through the store retry transient append failures
// under DefaultRetryPolicy unless WithRetryPolicy overrides it.
func Open(dir string, opts ...Option) (*Store, error) {
	if dir == "" {
		return nil, errors.New("journal: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	st := &Store{dir: dir, retry: DefaultRetryPolicy}
	for _, opt := range opts {
		opt(st)
	}
	return st, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// path returns the log file path for a session id.
func (st *Store) path(id string) string {
	return filepath.Join(st.dir, id+walExt)
}

// newWriter wires a writer to the store's retry policy and counters,
// and gives it a path-seeded backoff jitter stream of its own.
func (st *Store) newWriter(f *os.File, path string, off int64) *Writer {
	return &Writer{f: f, path: path, off: off, retry: st.retry, metrics: &st.metrics, jitter: jitterSource(path)}
}

// Sessions returns the ids with a log file in the store, sorted.
func (st *Store) Sessions() ([]string, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, walExt) {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, walExt))
	}
	sort.Strings(ids)
	return ids, nil
}

// Create opens a fresh log for a new session id. It fails if a log for
// the id already exists — ids are never reused within one directory.
// The directory entry is fsynced before Create returns, so the file
// itself (not just its future contents) survives a power failure.
func (st *Store) Create(id string) (*Writer, error) {
	path := st.path(id)
	if inj := fault.Check(SiteCreateOpen, path); inj != nil {
		inj.Sleep()
		if inj.Err != nil {
			return nil, fmt.Errorf("journal: open %s: %w", path, inj.Err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := st.syncDir(); err != nil {
		f.Close()
		if rmErr := os.Remove(path); rmErr != nil {
			// The un-synced file could not be cleaned up either: report both,
			// so the operator knows a zero-length orphan may sit in the
			// directory (recovery deletes it as an "empty log" on next boot).
			return nil, errors.Join(err, fmt.Errorf("journal: removing unsynced log: %w", rmErr))
		}
		return nil, err
	}
	return st.newWriter(f, path, 0), nil
}

// syncDir fsyncs the store directory, making dirent changes (log
// creation, removal) durable against power loss.
func (st *Store) syncDir() error {
	if inj := fault.Check(SiteSyncDir, st.dir); inj != nil {
		inj.Sleep()
		if inj.Err != nil {
			return fmt.Errorf("journal: fsync %s: %w", st.dir, inj.Err)
		}
	}
	d, err := os.Open(st.dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: fsync %s: %w", st.dir, err)
	}
	return nil
}

// readLog is the shared whole-file read behind Load/Resume/Compact —
// the recovery-read fault site covers all three.
func (st *Store) readLog(id string) ([]byte, error) {
	path := st.path(id)
	if inj := fault.Check(SiteLoadRead, path); inj != nil {
		inj.Sleep()
		if inj.Err != nil {
			return nil, fmt.Errorf("journal: read %s: %w", path, inj.Err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return data, nil
}

// Load reads a session's log without touching the file: the valid record
// prefix, plus a non-nil tailErr describing why the scan stopped early
// (torn tail or corrupt frame; see Scan).
func (st *Store) Load(id string) (recs []Record, tailErr error, err error) {
	data, err := st.readLog(id)
	if err != nil {
		return nil, nil, err
	}
	recs, _, tailErr = Scan(data)
	return recs, tailErr, nil
}

// Resumed is the result of reopening a session's log after a restart.
type Resumed struct {
	// Writer is positioned after the last valid record.
	Writer *Writer
	// Records is the surviving record prefix.
	Records []Record
	// TailErr describes the torn or corrupt tail that was truncated away
	// (nil for a log that ended cleanly on a frame boundary; see Scan).
	TailErr error
}

// Resume reopens a session's log for appending after a restart: it scans
// the file, truncates any torn or corrupt tail back to the last valid
// frame, and returns the surviving records together with a writer
// positioned at their end.
func (st *Store) Resume(id string) (*Resumed, error) {
	path := st.path(id)
	data, err := st.readLog(id)
	if err != nil {
		return nil, err
	}
	recs, valid, tailErr := Scan(data)
	if inj := fault.Check(SiteReopen, path); inj != nil {
		inj.Sleep()
		if inj.Err != nil {
			return nil, fmt.Errorf("journal: reopen %s: %w", path, inj.Err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if tailErr != nil {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: truncating %s to %d bytes: %w", path, valid, err)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Resumed{Writer: st.newWriter(f, path, int64(valid)), Records: recs, TailErr: tailErr}, nil
}

// Compact rewrites a session's log as [created record][newest checkpoint
// record][records after it], dropping the replay history the checkpoint
// makes redundant, and returns how many bytes the rewrite removed. The
// rewrite is atomic (temp file, fsync, rename, directory fsync): a crash
// at any point leaves either the old or the new file, never a blend.
//
// Compact refuses logs it cannot fully account for: a torn or corrupt
// tail (the bytes being dropped must be provably redundant, and a
// damaged log should stay on disk exactly as found), a log not starting
// with a created record, or one whose checkpoint precedes nothing. A log
// with no checkpoint past the created record is a no-op. The caller must
// not hold an open Writer on the log: the writer's file offset would
// dangle past the rewritten file. Compaction is deliberately the only
// operation that discards acknowledged records — once the history before
// a checkpoint is gone, a loader that distrusts that checkpoint can no
// longer fall back to full replay, which is why the writer's snapshots
// must equal replay by construction (see Checkpoint).
func (st *Store) Compact(id string) (removed int64, err error) {
	path := st.path(id)
	data, err := st.readLog(id)
	if err != nil {
		return 0, err
	}
	recs, valid, tailErr := Scan(data)
	if tailErr != nil {
		return 0, fmt.Errorf("journal: compact %s: refusing log with damaged tail at offset %d: %w", path, valid, tailErr)
	}
	if len(recs) == 0 || recs[0].Type != TypeCreated {
		return 0, fmt.Errorf("journal: compact %s: log does not start with a created record", path)
	}
	last := -1
	for i, rec := range recs {
		if rec.Type == TypeCheckpoint {
			last = i
		}
	}
	if last < 2 {
		// No checkpoint, or one already at position 1 (a previous
		// compaction's base): nothing redundant to drop.
		return 0, nil
	}
	buf := RawFrame(recs[0].Type, recs[0].Body)
	for _, rec := range recs[last:] {
		buf = append(buf, RawFrame(rec.Type, rec.Body)...)
	}
	if int64(len(buf)) >= int64(len(data)) {
		return 0, nil
	}
	tmp := path + ".tmp"
	// cleanup folds a failed temp-file removal into the returned error
	// instead of discarding it: a .tmp orphan is harmless to correctness
	// (Compact O_TRUNCs it next time) but the operator budgeting a nearly
	// full disk deserves to know it is there.
	cleanup := func(cause error) error {
		if rmErr := os.Remove(tmp); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) {
			return errors.Join(cause, fmt.Errorf("journal: compact: removing temp file: %w", rmErr))
		}
		return cause
	}
	if inj := fault.Check(SiteCompactWrite, tmp); inj != nil {
		inj.Sleep()
		if inj.Err != nil {
			return 0, cleanup(fmt.Errorf("journal: compact: write %s: %w", tmp, inj.Err))
		}
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("journal: compact: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return 0, cleanup(fmt.Errorf("journal: compact: %w", err))
	}
	if inj := fault.Check(SiteCompactSync, tmp); inj != nil {
		inj.Sleep()
		if inj.Err != nil {
			f.Close()
			return 0, cleanup(fmt.Errorf("journal: compact: fsync %s: %w", tmp, inj.Err))
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, cleanup(fmt.Errorf("journal: compact: fsync %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		return 0, cleanup(fmt.Errorf("journal: compact: %w", err))
	}
	if inj := fault.Check(SiteCompactRename, path); inj != nil {
		inj.Sleep()
		if inj.Err != nil {
			return 0, cleanup(fmt.Errorf("journal: compact: rename %s: %w", tmp, inj.Err))
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, cleanup(fmt.Errorf("journal: compact: %w", err))
	}
	if err := st.syncDir(); err != nil {
		return 0, err
	}
	return int64(len(data)) - int64(len(buf)), nil
}

// Size returns the on-disk byte size of a session's log. It is the
// store's contribution to memory/disk accounting: a manager rolls the
// per-session sizes up into its journal-bytes gauge, and operators
// budget the journal directory from the same number.
func (st *Store) Size(id string) (int64, error) {
	fi, err := os.Stat(st.path(id))
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	return fi.Size(), nil
}

// Remove deletes a session's log (after a deliberate close — the
// campaign is over and there is nothing left to recover). The unlink is
// fsynced; losing it to a power failure would only resurrect a log
// whose closed record makes the next recovery delete it again.
func (st *Store) Remove(id string) error {
	if err := os.Remove(st.path(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("journal: %w", err)
	}
	return st.syncDir()
}

// Writer appends committed records to one session's log. Append is the
// commit point: it frames, writes and fsyncs before returning, so a
// record that Append acknowledged survives an immediate process kill.
//
// A writer built by a Store additionally retries transient-class
// failures (see Classify) under the store's RetryPolicy: the file is
// reopened by path, truncated back to the last committed offset — which
// erases any torn bytes the failed attempt left — and the whole frame is
// rewritten and fsynced. Disk-full and permanent failures return
// immediately; on any final failure the writer best-effort truncates the
// torn tail away so the on-disk log still ends on a committed frame.
// A Writer is safe for concurrent use.
type Writer struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	off     int64 // bytes of committed (written+synced) frames
	retry   RetryPolicy
	jitter  *rng.Source // guarded by mu (backoff draws inside AppendFrame)
	metrics *storeMetrics
	closed  bool
}

// Append frames one record (type + JSON-encoded body v, nil for closed
// records), writes it, and syncs the file. On a write or sync error the
// record must be considered not committed.
func (w *Writer) Append(t Type, v any) error {
	frame, err := Marshal(t, v)
	if err != nil {
		return err
	}
	return w.AppendFrame(frame)
}

// AppendFrame writes and syncs an already-Marshaled frame. Callers that
// need to distinguish encoding failures (the caller's record, nothing
// touched disk) from commit failures (the log is in doubt) Marshal
// first and hand the frame here.
func (w *Writer) AppendFrame(frame []byte) error {
	t := Type(0)
	if len(frame) > headerLen {
		t = Type(frame[headerLen])
	}
	siteWrite, siteSync := SiteAppendWrite, SiteAppendSync
	if t == TypeCheckpoint {
		siteWrite, siteSync = SiteCheckpointWrite, SiteCheckpointSync
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("journal: writer closed")
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = w.tryAppendLocked(siteWrite, siteSync, frame)
		if err == nil {
			w.off += int64(len(frame))
			return nil
		}
		class := Classify(err)
		if class != ClassTransient || attempt >= w.retry.MaxRetries {
			if w.metrics != nil {
				w.metrics.failures.Add(1)
				if class == ClassDiskFull {
					w.metrics.diskFull.Add(1)
				}
			}
			// Best-effort repair: drop any torn bytes the failed attempt
			// left, so the log on disk still ends on the last committed frame
			// (emergency compaction refuses logs with damaged tails, and
			// shrinking a file needs no free disk space even under ENOSPC).
			// The seek matters too: a partial write advanced the fd offset,
			// and a later append through this handle must not leave a hole.
			if w.f != nil {
				//asm:errclass-ok best-effort tail repair under a failing disk; the append error above already carries the class the caller acts on
				_ = w.f.Truncate(w.off)
				//asm:errclass-ok best-effort fd reposition; joining it could let Classify match the wrong class on the returned error
				_, _ = w.f.Seek(w.off, io.SeekStart)
			}
			return fmt.Errorf("journal: append %s (%s): %w", t, class, err)
		}
		if w.metrics != nil {
			w.metrics.retries.Add(1)
		}
		time.Sleep(w.retry.backoff(attempt+1, w.jitter))
		if rerr := w.reopenLocked(); rerr != nil {
			if w.metrics != nil {
				w.metrics.failures.Add(1)
			}
			return fmt.Errorf("journal: append %s: reopen after %v: %w", t, err, rerr)
		}
	}
}

// tryAppendLocked performs one write+fsync attempt at the committed
// offset; callers hold w.mu.
func (w *Writer) tryAppendLocked(siteWrite, siteSync fault.Site, frame []byte) error {
	if inj := fault.Check(siteWrite, w.path); inj != nil {
		inj.Sleep()
		if inj.Err != nil {
			if k, partial := inj.PartialLen(len(frame)); partial {
				// A torn write that really hit the disk before failing: the
				// retry (or the next recovery scan) must cope with the
				// dangling prefix.
				//asm:errclass-ok deliberately torn fault-injection write; the injected error is what this attempt returns
				_, _ = w.f.Write(frame[:k])
			}
			return fmt.Errorf("write %s: %w", w.path, inj.Err)
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	if inj := fault.Check(siteSync, w.path); inj != nil {
		inj.Sleep()
		if inj.Err != nil {
			return fmt.Errorf("fsync %s: %w", w.path, inj.Err)
		}
	}
	return w.f.Sync()
}

// reopenLocked re-establishes the writer's file handle for a retry: the
// old handle is discarded (a failed fsync leaves its dirty-page state
// undefined, so the fd cannot be trusted again), the log is reopened by
// path, truncated back to the committed offset — erasing torn bytes from
// the failed attempt — and positioned for the rewrite. Callers hold w.mu.
func (w *Writer) reopenLocked() error {
	if w.metrics != nil {
		w.metrics.reopens.Add(1)
	}
	if inj := fault.Check(SiteReopen, w.path); inj != nil {
		inj.Sleep()
		if inj.Err != nil {
			return fmt.Errorf("reopen %s: %w", w.path, inj.Err)
		}
	}
	f, err := os.OpenFile(w.path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(w.off); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(w.off, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	if w.f != nil {
		//asm:errclass-ok the old fd is condemned after a failed fsync; its close error says nothing the retry does not
		_ = w.f.Close()
	}
	w.f = f
	return nil
}

// Close releases the log file handle. The log itself stays on disk;
// use Store.Remove to delete it. Close is idempotent.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}
