package fleet

import (
	"errors"
	"testing"

	"moc/internal/storage"
)

// openWithRecords opens a Service over a MemStore holding only the given
// job records, keyed by the registry key suffix.
func openWithRecords(t testing.TB, records map[string][]byte) (*Service, error) {
	backend := storage.NewMemStore()
	for id, blob := range records {
		if err := backend.Put(jobPrefix+id, blob); err != nil {
			t.Fatal(err)
		}
	}
	return Open(backend, Config{})
}

// registeredRecords returns the records Register, Acquire and Release
// write for a base job and a fork of it.
func registeredRecords(t testing.TB) map[string][]byte {
	backend := storage.NewMemStore()
	svc, err := Open(backend, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("base", ""); err != nil {
		t.Fatal(err)
	}
	sess, err := svc.AcquireOrRegister("ft-1", "base")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, id := range []string{"base", "ft-1"} {
		blob, err := backend.Get(jobPrefix + id)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = blob
	}
	return out
}

func TestOpenRejectsRecordsRegisterCannotWrite(t *testing.T) {
	svc, err := openWithRecords(t, registeredRecords(t))
	if err != nil {
		t.Fatalf("records the service wrote: %v", err)
	}
	if n := len(svc.Jobs()); n != 2 {
		t.Fatalf("opened %d jobs, want 2", n)
	}

	for _, tc := range []struct {
		name    string
		records map[string]string
	}{
		{"empty writer", map[string]string{"a": `{"id":"a","writer":""}`}},
		{"foreign writer", map[string]string{"a": `{"id":"a","writer":"b"}`}},
		{"key names another id", map[string]string{"a": `{"id":"b","writer":"b"}`}},
		{"invalid id", map[string]string{"a.b": `{"id":"a.b","writer":"a.b"}`}},
		{"reserved id", map[string]string{"fleet-x": `{"id":"fleet-x","writer":"fleet-x"}`}},
		{"negative epoch", map[string]string{"a": `{"id":"a","writer":"a","epoch":-1}`}},
		{"not json", map[string]string{"a": `{"id":`}},
		{"unregistered parent", map[string]string{"a": `{"id":"a","parent":"p/q","writer":"a"}`}},
		{"own parent", map[string]string{"a": `{"id":"a","parent":"a","writer":"a"}`}},
		{"parent cycle", map[string]string{
			"a": `{"id":"a","parent":"b","writer":"a"}`,
			"b": `{"id":"b","parent":"a","writer":"b"}`,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			records := map[string][]byte{}
			for k, v := range tc.records {
				records[k] = []byte(v)
			}
			if _, err := openWithRecords(t, records); err == nil {
				t.Fatalf("Open accepted %v", tc.records)
			}
		})
	}
}

// FuzzOpenJobRecords seeds a registry with two fuzzed records. Open must
// never panic, and a Service it returns holds only records Register could
// have written, which Acquire can then lease.
func FuzzOpenJobRecords(f *testing.F) {
	recs := registeredRecords(f)
	f.Add("base", recs["base"], "ft-1", recs["ft-1"])
	f.Add("a", []byte(`{"id":"a","writer":""}`), "b", []byte(`{"id":"b","parent":"a","writer":"b","epoch":3}`))
	f.Add("a", []byte(`{"id":"a","writer":"a"}`), "b", []byte(`{"id":"b","parent":"b","writer":"b"}`))
	f.Fuzz(func(t *testing.T, k1 string, r1 []byte, k2 string, r2 []byte) {
		if k1 == k2 {
			return
		}
		svc, err := openWithRecords(t, map[string][]byte{k1: r1, k2: r2})
		if err != nil {
			return
		}
		jobs := svc.Jobs()
		ids := map[string]bool{}
		for _, j := range jobs {
			ids[j.ID] = true
		}
		for _, j := range jobs {
			if validateJobID(j.ID) != nil || j.Writer != j.ID || j.Epoch < 0 || j.Parent == j.ID || j.Parent != "" && !ids[j.Parent] {
				t.Fatalf("Open accepted a record Register cannot write: %+v", j)
			}
			sess, err := svc.Acquire(j.ID)
			if errors.Is(err, ErrLeaseHeld) {
				continue
			}
			if err != nil {
				t.Fatalf("acquire %+v: %v", j, err)
			}
			if sess.Writer() != j.ID {
				t.Fatalf("session of %q writes as %q", j.ID, sess.Writer())
			}
		}
	})
}
