package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
)

// storeFrame frames one journal record exactly as FileStableStore's
// appendLocked does: length, type, payload, CRC over type and payload.
func storeFrame(typ byte, payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = append(frame, typ)
	frame = append(frame, payload...)
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame[storeLenSize:]))
}

// storeView is everything a FileStableStore hands its replica on reload,
// printed: the views hold interface-typed operators a hostile payload can
// fill with any gob basic type, NaN included, which reflect.DeepEqual would
// never call equal to itself.
func storeView(st *FileStableStore) string {
	return fmt.Sprintf("%#v\n%#v\n%#v\n%#v", st.Labels(), st.Ops(), st.Resizes(), st.Keys())
}

// validJournal writes one record of each of the four types through a real
// store and returns the journal's bytes.
func validJournal(f *testing.F) []byte {
	path := filepath.Join(f.TempDir(), "seed.journal")
	st, err := OpenFileStableStoreWith(path, FileStoreOptions{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	id := ops.ID{Client: "c", Seq: 3}
	for _, err := range []error{
		st.PersistLabel(ops.ID{Client: "c", Seq: 2}, label.Make(4, 1)),
		st.PersistOp(ops.New(dtype.KeyedOp{Key: "k", Op: dtype.CtrAdd{N: 5}}, id, []ops.ID{{Client: "c", Seq: 2}}, true), label.Make(5, 0)),
		st.PersistResize(ResizeRecord{Epoch: 1, OldShards: 1, NewShards: 2, Migrated: []MigratedKey{{Key: "k", HasInstall: true, InstallID: id}}}),
		st.PersistKey(id, "k"),
		st.Commit(),
		st.Close(),
	} {
		if err != nil {
			f.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzFileStableStore is the decoder-level fuzz target for the journal
// (DESIGN.md §10, "Log format"): a crash or a disk leaves arbitrary bytes
// behind, and OpenFileStableStore is the door through which they reach a
// replica. The journal is tail; when typ is not 0 the harness first frames
// (typ, payload) with a valid length and CRC, so fuzzer-chosen payloads get
// past the checksum into the gob decoders. Properties: Open never panics;
// a journal it accepts is only ever cut at a torn final frame; reopening
// gives the same labels, operations, resizes and keys; and a label
// persisted and committed after Open survives a reopen.
func FuzzFileStableStore(f *testing.F) {
	valid := validJournal(f)
	f.Add(byte(0), []byte(nil), valid)
	for n := 0; n < len(valid); n++ {
		f.Add(byte(0), []byte(nil), valid[:n])
	}
	for off := 0; off < len(valid); {
		n := int(binary.LittleEndian.Uint32(valid[off:]))
		f.Add(valid[off+storeLenSize], valid[off+storeLenSize+1:off+storeLenSize+1+n], []byte(nil))
		end := off + storeFrameOver + n
		flipped := bytes.Clone(valid)
		flipped[end-1] ^= 0xff // this frame's CRC
		f.Add(byte(0), []byte(nil), flipped)
		off = end
	}
	huge := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(huge, maxRecordLen+1)
	f.Add(byte(0), []byte(nil), huge)
	f.Add(byte('Z'), []byte("a newer writer's record"), valid)

	f.Fuzz(func(t *testing.T, typ byte, payload, tail []byte) {
		var data []byte
		if typ != 0 {
			data = storeFrame(typ, payload)
		}
		data = append(data, tail...)
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() *FileStableStore {
			st, err := OpenFileStableStoreWith(path, FileStoreOptions{NoSync: true})
			if err != nil {
				return nil
			}
			return st
		}
		closeStore := func(st *FileStableStore) {
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
		st := open()
		if st == nil {
			return // rejected whole: corrupt interior or undecodable record
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("accepted journal of %d bytes rewritten, not cut", len(data))
		}
		if cut := data[len(kept):]; len(cut) > 0 &&
			len(cut) >= storeLenSize && len(cut) >= storeFrameOver+int(binary.LittleEndian.Uint32(cut)) {
			t.Fatalf("accepted journal cut at %d of %d bytes, and the dropped tail holds a whole frame", len(kept), len(data))
		}

		view := storeView(st)
		closeStore(st)
		if st = open(); st == nil {
			t.Fatal("an accepted journal failed to reopen")
		}
		if again := storeView(st); again != view {
			t.Fatalf("reopen changed the journal's view:\n%s\nthen\n%s", view, again)
		}

		probe, l := ops.ID{Client: "fuzz-probe", Seq: 1}, label.Make(9, 2)
		if err := st.PersistLabel(probe, l); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
		closeStore(st)
		if st = open(); st == nil {
			t.Fatal("the journal failed to reopen after an append")
		}
		defer closeStore(st)
		if got, ok := st.Labels()[probe]; !ok || got != l {
			t.Fatalf("label persisted after open reloaded as %v (present %v), want %v", got, ok, l)
		}
	})
}
