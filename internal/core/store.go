package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"sort"
	"sync"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
)

// StableStore is the replica's only non-volatile state: the write-ahead
// journal of everything §9.3 recovery needs. Implementations must retain
// writes made before a crash.
//
// The Persist* methods journal records; they may buffer — a record is
// guaranteed durable only once a later Commit returns nil. The replica
// groups the records of one admission round and issues one Commit before
// any message built from them leaves (the group-commit, ack-after-durable
// write path of DESIGN.md §10): responses, gossip, and recovery answers
// all wait on the round's Commit, so no label or acknowledgement is ever
// externalized on the strength of a record a crash could lose.
type StableStore interface {
	// PersistLabel records that the replica assigned l to id. A non-nil
	// error means the label is NOT durable; the replica then refuses to use
	// it (and stops labeling new operations): §9.3's safety rests on every
	// locally generated label surviving a crash, and a label used but lost
	// could be re-issued to a different operation after recovery, splitting
	// the total order.
	PersistLabel(id ops.ID, l label.Label) error
	// PersistOp journals the full operation descriptor together with the
	// label the replica assigned it — the do_it write path. Persisting the
	// descriptor (not just the label) is what lets recovery re-introduce an
	// answered-then-lost operation into gossip: without it, a replica that
	// acknowledged a non-strict operation and crashed before gossiping it
	// lost the operation forever (the former DESIGN.md §6 gap).
	PersistOp(x ops.Operation, l label.Label) error
	// PersistResize journals one resize epoch's freeze/migration record so
	// a crashed single-replica shard re-learns its obligations without a
	// peer. Later records for the same epoch supersede earlier ones.
	PersistResize(rec ResizeRecord) error
	// PersistKey journals one entry of the prune-surviving key index
	// (idRec.key), which ExportKeyState needs even after descriptors are gone.
	PersistKey(id ops.ID, key string) error
	// Commit makes every record journaled so far durable. A non-nil error
	// means durability is unknown-at-best; the replica withholds the
	// messages of the round and latches storeFailed.
	Commit() error
	// Labels returns all persisted label assignments (from PersistLabel and
	// PersistOp records alike).
	Labels() map[ops.ID]label.Label
	// Ops returns all persisted operation descriptors in journal order —
	// the order they were labeled, which respects prev constraints.
	Ops() []ops.Operation
	// Resizes returns the latest persisted record of every resize epoch.
	Resizes() []ResizeRecord
	// Keys returns the persisted key index.
	Keys() map[ops.ID]string
}

// MemStableStore is an in-memory StableStore that lives outside the replica
// (so it survives Replica.Crash). It is safe for concurrent use.
type MemStableStore struct {
	mu      sync.Mutex
	m       map[ops.ID]label.Label
	ops     []ops.Operation
	opIdx   map[ops.ID]int
	resizes map[int]ResizeRecord
	keys    map[ops.ID]string
}

var _ StableStore = (*MemStableStore)(nil)

// NewMemStableStore returns an empty store.
func NewMemStableStore() *MemStableStore {
	return &MemStableStore{
		m:       make(map[ops.ID]label.Label),
		opIdx:   make(map[ops.ID]int),
		resizes: make(map[int]ResizeRecord),
		keys:    make(map[ops.ID]string),
	}
}

// PersistLabel implements StableStore; memory writes cannot fail.
func (s *MemStableStore) PersistLabel(id ops.ID, l label.Label) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[id] = l
	return nil
}

// PersistOp implements StableStore. Re-persisting an operation (a recovery
// replay re-labeling it with its held label) overwrites in place.
func (s *MemStableStore) PersistOp(x ops.Operation, l label.Label) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[x.ID] = l
	if i, ok := s.opIdx[x.ID]; ok {
		s.ops[i] = x
	} else {
		s.opIdx[x.ID] = len(s.ops)
		s.ops = append(s.ops, x)
	}
	return nil
}

// PersistResize implements StableStore: the latest record per epoch wins
// (records only grow — more migrated keys, then Complete).
func (s *MemStableStore) PersistResize(rec ResizeRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resizes[rec.Epoch] = rec
	return nil
}

// PersistKey implements StableStore.
func (s *MemStableStore) PersistKey(id ops.ID, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys[id] = key
	return nil
}

// Commit implements StableStore; memory records are durable on write.
func (s *MemStableStore) Commit() error { return nil }

// Labels implements StableStore.
func (s *MemStableStore) Labels() map[ops.ID]label.Label {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[ops.ID]label.Label, len(s.m))
	for id, l := range s.m {
		out[id] = l
	}
	return out
}

// Ops implements StableStore.
func (s *MemStableStore) Ops() []ops.Operation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ops.Operation(nil), s.ops...)
}

// Resizes implements StableStore.
func (s *MemStableStore) Resizes() []ResizeRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ResizeRecord, 0, len(s.resizes))
	for _, rec := range s.resizes {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

// Keys implements StableStore.
func (s *MemStableStore) Keys() map[ops.ID]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[ops.ID]string, len(s.keys))
	for id, k := range s.keys {
		out[id] = k
	}
	return out
}

// FileStableStore is a StableStore backed by an append-only framed log, for
// multi-process deployments (cmd/esds-server -store). It is the durable
// half of the group-commit write path (DESIGN.md §10): Persist* calls
// append framed, checksummed records to the log (one write syscall per
// record, into the OS page cache), and Commit blocks until an async
// committer goroutine has fsynced everything appended so far. The
// committer drains ALL records pending at each wakeup, so concurrent
// admission rounds share fsyncs under load (group commit) and an idle
// store degrades to one fsync per record — the latency/throughput
// trade-off follows offered load with no tuning knob.
//
// Log format (all integers little-endian):
//
//	[4B payload len][1B record type][payload][4B CRC32-IEEE of type+payload]
//
// Record types: 'L' label assignment, 'O' operation descriptor + label,
// 'R' resize record, 'K' key-index entry; payloads are self-contained gob
// streams. Reload tolerates a torn tail — an incomplete final frame (a
// power loss mid-write) is truncated away and the store recovers cleanly —
// but faults on a frame whose checksum or declared length is garbage:
// corruption anywhere but the tail means the journal cannot be trusted.
// Unknown record types with valid checksums are skipped (forward
// compatibility). Later records for the same id win, matching
// MemStableStore's overwrite semantics.
type FileStableStore struct {
	mu      sync.Mutex
	cond    *sync.Cond
	f       *os.File
	noSync  bool
	m       map[ops.ID]label.Label
	opsLog  []ops.Operation
	opIdx   map[ops.ID]int
	resizes map[int]ResizeRecord
	keys    map[ops.ID]string

	appended uint64 // records appended to the log (page cache)
	synced   uint64 // records made durable by the committer
	syncs    uint64 // committer wakeups (fsyncs, unless NoSync); syncs ≪ appended under load = group commit working
	lastErr  error
	closed   bool
	done     chan struct{} // closed when the committer exits
}

var _ StableStore = (*FileStableStore)(nil)

// FileStoreOptions tunes a FileStableStore.
type FileStoreOptions struct {
	// NoSync makes Commit return as soon as records reach the OS page
	// cache, skipping the fsync. Appends survive kill -9 (the page cache
	// belongs to the kernel) but not power loss — the pre-durability
	// behavior, kept as the E14 baseline and as an opt-out for deployments
	// that prefer write latency over power-loss durability
	// (cmd/esds-server -store-sync=false).
	NoSync bool
}

// Framing constants: a frame is lenSize+1+payload+crcSize bytes, and a
// declared payload above maxRecordLen is treated as corruption — no honest
// record is that large, but the first bytes of a garbage (or old-format
// text) file routinely are.
const (
	storeLenSize   = 4
	storeCRCSize   = 4
	maxRecordLen   = 1 << 26 // 64 MiB
	recLabelByte   = 'L'
	recOpByte      = 'O'
	recResizeByte  = 'R'
	recKeyByte     = 'K'
	storeFrameOver = storeLenSize + 1 + storeCRCSize
)

// labelRecord is the 'L' payload; opRecord the 'O' payload; keyRecord the
// 'K' payload ('R' encodes ResizeRecord directly). Each payload is its own
// gob stream (a fresh encoder per record), so every frame is
// self-describing and reload needs no cross-record decoder state.
type labelRecord struct {
	ID ops.ID
	L  label.Label
}

type storedOpRecord struct {
	X ops.Operation
	L label.Label
}

type keyRecord struct {
	ID  ops.ID
	Key string
}

// OpenFileStableStore opens (creating if needed) the durable store at path
// and loads every persisted record. Commit fsyncs — the group-commit
// default; see OpenFileStableStoreWith for the NoSync variant.
func OpenFileStableStore(path string) (*FileStableStore, error) {
	return OpenFileStableStoreWith(path, FileStoreOptions{})
}

// OpenFileStableStoreWith is OpenFileStableStore with options.
func OpenFileStableStoreWith(path string, opt FileStoreOptions) (*FileStableStore, error) {
	// Operation descriptors carry dtype.Operator interface values; their
	// concrete types must be registered before any 'O' payload is encoded
	// or decoded.
	dtype.RegisterWire()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: opening stable store: %w", err)
	}
	s := &FileStableStore{
		f:       f,
		noSync:  opt.NoSync,
		m:       make(map[ops.ID]label.Label),
		opIdx:   make(map[ops.ID]int),
		resizes: make(map[int]ResizeRecord),
		keys:    make(map[ops.ID]string),
		done:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.load(path); err != nil {
		f.Close()
		return nil, err
	}
	go s.committer()
	return s, nil
}

// load replays the log into memory, truncating a torn tail.
func (s *FileStableStore) load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("core: reading stable store %s: %w", path, err)
	}
	off := 0
	torn := false
	for off < len(data) {
		rest := data[off:]
		if len(rest) < storeLenSize {
			torn = true
			break
		}
		n := binary.LittleEndian.Uint32(rest)
		if n > maxRecordLen {
			return fmt.Errorf("core: stable store %s: frame at offset %d declares %d payload bytes: corrupt journal", path, off, n)
		}
		total := storeFrameOver + int(n)
		if len(rest) < total {
			torn = true
			break
		}
		typ := rest[storeLenSize]
		payload := rest[storeLenSize+1 : storeLenSize+1+int(n)]
		crc := binary.LittleEndian.Uint32(rest[storeLenSize+1+int(n):])
		if crc32.ChecksumIEEE(rest[storeLenSize:storeLenSize+1+int(n)]) != crc {
			return fmt.Errorf("core: stable store %s: frame at offset %d fails its checksum: corrupt journal", path, off)
		}
		if err := s.apply(typ, payload); err != nil {
			return fmt.Errorf("core: stable store %s: frame at offset %d: %w", path, off, err)
		}
		off += total
	}
	if torn {
		// An incomplete final frame: the crash hit mid-append and the record
		// was never durable (Commit cannot have covered it), so no message
		// externalized it. Drop it and recover with the intact prefix.
		if err := s.f.Truncate(int64(off)); err != nil {
			return fmt.Errorf("core: stable store %s: truncating torn tail: %w", path, err)
		}
	}
	return nil
}

// apply folds one loaded record into the in-memory view.
func (s *FileStableStore) apply(typ byte, payload []byte) error {
	dec := func(v any) error {
		return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
	}
	switch typ {
	case recLabelByte:
		var rec labelRecord
		if err := dec(&rec); err != nil {
			return fmt.Errorf("decoding label record: %w", err)
		}
		s.m[rec.ID] = rec.L
	case recOpByte:
		var rec storedOpRecord
		if err := dec(&rec); err != nil {
			return fmt.Errorf("decoding op record: %w", err)
		}
		s.m[rec.X.ID] = rec.L
		if i, ok := s.opIdx[rec.X.ID]; ok {
			s.opsLog[i] = rec.X
		} else {
			s.opIdx[rec.X.ID] = len(s.opsLog)
			s.opsLog = append(s.opsLog, rec.X)
		}
	case recResizeByte:
		var rec ResizeRecord
		if err := dec(&rec); err != nil {
			return fmt.Errorf("decoding resize record: %w", err)
		}
		s.resizes[rec.Epoch] = rec
	case recKeyByte:
		var rec keyRecord
		if err := dec(&rec); err != nil {
			return fmt.Errorf("decoding key record: %w", err)
		}
		s.keys[rec.ID] = rec.Key
	default:
		// Unknown but checksummed: a newer writer's record type. Skip it —
		// the fields this reader understands are still whole.
	}
	return nil
}

// appendLocked frames and appends one record (mutex held). The frame goes
// out in a single write syscall, so a kill -9 cannot tear it; only power
// loss can, and load's torn-tail handling covers that.
func (s *FileStableStore) appendLocked(typ byte, v any) error {
	if s.lastErr != nil {
		return s.lastErr
	}
	if s.closed {
		return fmt.Errorf("core: stable store is closed")
	}
	var buf bytes.Buffer
	buf.Write(make([]byte, storeLenSize)) // length back-patched below
	buf.WriteByte(typ)
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("core: encoding stable store record: %w", err)
	}
	frame := buf.Bytes()
	n := len(frame) - storeLenSize - 1
	binary.LittleEndian.PutUint32(frame, uint32(n))
	var crc [storeCRCSize]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(frame[storeLenSize:]))
	frame = append(frame, crc[:]...)
	if _, err := s.f.Write(frame); err != nil {
		if s.lastErr == nil {
			s.lastErr = err
		}
		return err
	}
	s.appended++
	s.cond.Broadcast()
	return nil
}

// committer is the async group-commit goroutine: each wakeup fsyncs
// everything appended so far, so every Commit waiting on any of those
// records completes on one fsync. It exits on Close or on the first sync
// failure (after fsync reports an error the page cache may have dropped
// the very pages it failed on, so retrying would claim durability the
// kernel cannot deliver).
func (s *FileStableStore) committer() {
	defer close(s.done)
	s.mu.Lock()
	for {
		for s.synced == s.appended && !s.closed {
			s.cond.Wait()
		}
		if s.synced == s.appended && s.closed {
			s.mu.Unlock()
			return
		}
		target := s.appended
		s.mu.Unlock()
		var err error
		if !s.noSync {
			err = s.f.Sync()
		}
		s.mu.Lock()
		if err != nil {
			if s.lastErr == nil {
				s.lastErr = err
			}
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		s.synced = target
		s.syncs++
		s.cond.Broadcast()
	}
}

// Syncs reports how many committer passes have run — each one fsync (or,
// with NoSync, one bookkeeping pass) covering every record appended since
// the previous pass. The records/syncs ratio is the measured group-commit
// batch size (E14).
func (s *FileStableStore) Syncs() (syncs, records uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs, s.appended
}

// PersistLabel implements StableStore. On a write error the label is NOT
// recorded as durable and the error is returned (and retained for Err) —
// the replica fail-stops its labeling rather than answer with a label a
// restart would forget.
func (s *FileStableStore) PersistLabel(id ops.ID, l label.Label) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendLocked(recLabelByte, labelRecord{ID: id, L: l}); err != nil {
		return err
	}
	s.m[id] = l
	return nil
}

// PersistOp implements StableStore. A replay-reused (id, label) pair that
// is already journaled is not re-appended: recovery re-labels replayed
// operations with their held labels, and journaling the no-op again on
// every restart would grow the log by its own length each crash.
func (s *FileStableStore) PersistOp(x ops.Operation, l label.Label) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.opIdx[x.ID]; ok && s.m[x.ID] == l && reflect.DeepEqual(s.opsLog[i], x) {
		return nil
	}
	if err := s.appendLocked(recOpByte, storedOpRecord{X: x, L: l}); err != nil {
		return err
	}
	s.m[x.ID] = l
	if i, ok := s.opIdx[x.ID]; ok {
		s.opsLog[i] = x
	} else {
		s.opIdx[x.ID] = len(s.opsLog)
		s.opsLog = append(s.opsLog, x)
	}
	return nil
}

// PersistResize implements StableStore; an epoch's unchanged record is not
// re-appended (freeze broadcasts repeat).
func (s *FileStableStore) PersistResize(rec ResizeRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.resizes[rec.Epoch]; ok && reflect.DeepEqual(cur, rec) {
		return nil
	}
	if err := s.appendLocked(recResizeByte, rec); err != nil {
		return err
	}
	s.resizes[rec.Epoch] = rec
	return nil
}

// PersistKey implements StableStore; an id's key never changes, so a known
// id is not re-appended.
func (s *FileStableStore) PersistKey(id ops.ID, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.keys[id]; ok {
		return nil
	}
	if err := s.appendLocked(recKeyByte, keyRecord{ID: id, Key: key}); err != nil {
		return err
	}
	s.keys[id] = key
	return nil
}

// Commit implements StableStore: it blocks until the committer has made
// every record appended so far durable (or has failed). When nothing is
// pending it returns immediately — the idle fast path.
func (s *FileStableStore) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	target := s.appended
	for s.synced < target && s.lastErr == nil && !s.closed {
		s.cond.Wait()
	}
	if s.lastErr != nil {
		return s.lastErr
	}
	if s.synced < target {
		return fmt.Errorf("core: stable store closed with %d records uncommitted", target-s.synced)
	}
	return nil
}

// Labels implements StableStore.
func (s *FileStableStore) Labels() map[ops.ID]label.Label {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[ops.ID]label.Label, len(s.m))
	for id, l := range s.m {
		out[id] = l
	}
	return out
}

// Ops implements StableStore: descriptors in journal order.
func (s *FileStableStore) Ops() []ops.Operation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ops.Operation(nil), s.opsLog...)
}

// Resizes implements StableStore.
func (s *FileStableStore) Resizes() []ResizeRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ResizeRecord, 0, len(s.resizes))
	for _, rec := range s.resizes {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

// Keys implements StableStore.
func (s *FileStableStore) Keys() map[ops.ID]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[ops.ID]string, len(s.keys))
	for id, k := range s.keys {
		out[id] = k
	}
	return out
}

// Err returns the first write or sync error, if any: a deployment that
// cannot persist its journal should not advertise itself as recoverable
// (cmd/esds-server fail-stops on it).
func (s *FileStableStore) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Close stops the committer — after draining any pending records through
// one final fsync — and closes the backing file.
func (s *FileStableStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
	return s.f.Close()
}
