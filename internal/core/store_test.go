package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
)

func TestFileStableStorePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r0.labels")
	st, err := OpenFileStableStore(path)
	if err != nil {
		t.Fatal(err)
	}
	idA := ops.ID{Client: "alice smith", Seq: 1} // client names may contain spaces: %q quoting handles them
	idB := ops.ID{Client: "bob", Seq: 2}
	if err := st.PersistLabel(idA, label.Make(5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.PersistLabel(idB, label.Make(9, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.PersistLabel(idA, label.Make(3, 0)); err != nil { // overwrite: last record wins
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen — the restart path of a killed replica process.
	st2, err := OpenFileStableStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got := st2.Labels()
	if len(got) != 2 || got[idA] != label.Make(3, 0) || got[idB] != label.Make(9, 1) {
		t.Fatalf("reloaded labels = %v", got)
	}
	// Returned map is a copy.
	got[idA] = label.Make(99, 0)
	if st2.Labels()[idA] != label.Make(3, 0) {
		t.Fatal("Labels aliases internal state")
	}
	// Appending after reopen keeps earlier records.
	if err := st2.PersistLabel(ops.ID{Client: "c", Seq: 3}, label.Make(11, 2)); err != nil {
		t.Fatal(err)
	}
	if n := len(st2.Labels()); n != 3 {
		t.Fatalf("labels after append = %d, want 3", n)
	}
}

// TestFileStableStoreGroupCommit pins group commit (DESIGN.md §10):
// writers that each append a record and Commit it at once share fsyncs, so
// Syncs reports fewer committer passes than records, and every committed
// record is in the journal on reopen.
func TestFileStableStoreGroupCommit(t *testing.T) {
	const writers, perWriter = 8, 50
	path := filepath.Join(t.TempDir(), "r0.labels")
	st, err := OpenFileStableStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := ops.ID{Client: fmt.Sprintf("w%d", w), Seq: uint64(i)}
				if err := st.PersistLabel(id, label.Make(uint64(i+1), 0)); err != nil {
					errs <- err
					return
				}
				if err := st.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	syncs, records := st.Syncs()
	t.Logf("%d records in %d syncs", records, syncs)
	if records != writers*perWriter {
		t.Fatalf("journal appended %d records, want %d", records, writers*perWriter)
	}
	if syncs == 0 || syncs >= records {
		t.Fatalf("%d records took %d syncs: overlapping commits did not share an fsync", records, syncs)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = OpenFileStableStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n := len(st.Labels()); n != writers*perWriter {
		t.Fatalf("reopened journal holds %d labels, want %d", n, writers*perWriter)
	}
}

// TestFileStableStoreDescriptorRoundTrip covers the group-commit write
// path's new record types: operation descriptors, resize records, and
// key-index entries must all survive Commit + reopen, with later records
// for the same id/epoch winning.
func TestFileStableStoreDescriptorRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r0.labels")
	st, err := OpenFileStableStore(path)
	if err != nil {
		t.Fatal(err)
	}
	xA := ops.Operation{
		Op:     dtype.LogAppend{Entry: "hello"},
		ID:     ops.ID{Client: "a", Seq: 1},
		Strict: false,
	}
	xB := ops.Operation{
		Op:     dtype.LogAppend{Entry: "world"},
		ID:     ops.ID{Client: "b", Seq: 7},
		Prev:   []ops.ID{xA.ID},
		Strict: true,
	}
	if err := st.PersistOp(xA, label.Make(4, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.PersistOp(xB, label.Make(6, 0)); err != nil {
		t.Fatal(err)
	}
	// Re-label of the same descriptor: label map updates, journal order keeps
	// the op once (overwrite-in-place semantics).
	if err := st.PersistOp(xA, label.Make(9, 0)); err != nil {
		t.Fatal(err)
	}
	rec := ResizeRecord{Epoch: 1, OldShards: 1, NewShards: 2}
	if err := st.PersistResize(rec); err != nil {
		t.Fatal(err)
	}
	rec.Complete = true
	rec.Migrated = []MigratedKey{{Key: "k"}}
	if err := st.PersistResize(rec); err != nil { // last record per epoch wins
		t.Fatal(err)
	}
	if err := st.PersistKey(xA.ID, "k"); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenFileStableStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ls := st2.Labels()
	if ls[xA.ID] != label.Make(9, 0) || ls[xB.ID] != label.Make(6, 0) {
		t.Fatalf("reloaded labels = %v", ls)
	}
	xs := st2.Ops()
	if len(xs) != 2 {
		t.Fatalf("reloaded %d descriptors, want 2", len(xs))
	}
	if !reflect.DeepEqual(xs[0], xA) || !reflect.DeepEqual(xs[1], xB) {
		t.Fatalf("descriptors = %+v", xs)
	}
	rs := st2.Resizes()
	if len(rs) != 1 || !reflect.DeepEqual(rs[0], rec) {
		t.Fatalf("resize records = %+v, want [%+v]", rs, rec)
	}
	ks := st2.Keys()
	if len(ks) != 1 || ks[xA.ID] != "k" {
		t.Fatalf("key index = %v", ks)
	}
}

// TestFileStableStoreDedupesReplayedRecords: re-persisting an identical
// descriptor (the recovery-replay path re-labels every reloaded op) must
// not grow the journal — otherwise every crash/recover cycle doubles it.
func TestFileStableStoreDedupesReplayedRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r0.labels")
	st, err := OpenFileStableStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	x := ops.Operation{Op: dtype.LogAppend{Entry: "e"}, ID: ops.ID{Client: "a", Seq: 1}}
	if err := st.PersistOp(x, label.Make(2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.PersistKey(x.ID, "k"); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()
	for i := 0; i < 3; i++ {
		if err := st.PersistOp(x, label.Make(2, 0)); err != nil {
			t.Fatal(err)
		}
		if err := st.PersistKey(x.ID, "k"); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	fi, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != size {
		t.Fatalf("journal grew from %d to %d bytes on identical re-persists", size, fi.Size())
	}
}

// TestFileStableStoreTornTailRecovers: a crash mid-append leaves an
// incomplete final frame. Reload must drop exactly that frame and keep the
// intact prefix — the torn record was never durable, so no acknowledgement
// can have depended on it.
func TestFileStableStoreTornTailRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r0.labels")
	st, err := OpenFileStableStore(path)
	if err != nil {
		t.Fatal(err)
	}
	idA := ops.ID{Client: "a", Seq: 1}
	idB := ops.ID{Client: "b", Seq: 2}
	if err := st.PersistLabel(idA, label.Make(5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.PersistLabel(idB, label.Make(7, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop a few bytes off the final frame.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenFileStableStore(path)
	if err != nil {
		t.Fatalf("torn tail did not recover: %v", err)
	}
	got := st2.Labels()
	if len(got) != 1 || got[idA] != label.Make(5, 0) {
		t.Fatalf("labels after torn-tail reload = %v, want only %v", got, idA)
	}
	// The torn bytes were truncated away: new appends start a clean frame.
	if err := st2.PersistLabel(idB, label.Make(8, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := OpenFileStableStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := st3.Labels(); len(got) != 2 || got[idB] != label.Make(8, 0) {
		t.Fatalf("labels after re-append = %v", got)
	}
}

// TestFileStableStoreRejectsCorruptInterior: garbage anywhere but the tail
// means the journal cannot be trusted — reload must fault, not silently
// skip.
func TestFileStableStoreRejectsCorruptInterior(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r0.labels")
	st, err := OpenFileStableStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PersistLabel(ops.ID{Client: "a", Seq: 1}, label.Make(5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.PersistLabel(ops.ID{Client: "b", Seq: 2}, label.Make(7, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte inside the FIRST frame: its checksum no longer
	// matches, and the record is not at the tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[storeLenSize+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStableStore(path); err == nil {
		t.Fatal("checksum-corrupt interior record opened without error")
	}
}

func TestFileStableStoreRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.labels")
	if err := os.WriteFile(path, []byte("not a record\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStableStore(path); err == nil {
		t.Fatal("corrupt store opened without error")
	}
}
