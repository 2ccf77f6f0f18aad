package storagetest

import (
	"bytes"
	"sync"
	"testing"

	"moc/internal/storage"
)

// putContractBytes is the payload CheckPutDoesNotRetain writes; a caller
// covering a size-dependent path (a multipart upload, a cache admission
// limit) sizes its store around it.
const putContractBytes = 8 << 10

// CheckPutDoesNotRetain proves store keeps the storage.PersistStore.Put
// contract: once Put has returned, the caller's buffer is the caller's
// again. It puts a buffer and overwrites it — first before reading back,
// then while reading back, so that under -race a store (or anything it
// forwards to) still holding the slice is reported even where the bytes
// happen to survive — and requires Get, and GetView where offered, to
// return what was put. The keys are chunk-shaped, so a tier that routes by
// key class takes its data path; they are deleted afterwards.
func CheckPutDoesNotRetain(t *testing.T, store storage.PersistStore) {
	t.Helper()
	viewer, _ := store.(storage.Viewer)
	for _, racing := range []bool{false, true} {
		key := "cas/chunks/put-does-not-retain"
		if racing {
			key += "-racing"
		}
		buf := make([]byte, putContractBytes)
		for i := range buf {
			buf[i] = byte(i*7 + i>>8)
		}
		want := bytes.Clone(buf)
		if err := store.Put(key, buf); err != nil {
			t.Fatalf("Put %s: %v", key, err)
		}
		var scribble sync.WaitGroup
		scribble.Add(1)
		go func() {
			defer scribble.Done()
			for i := range buf {
				buf[i] = ^buf[i]
			}
		}()
		if !racing {
			scribble.Wait()
		}
		got, err := store.Get(key)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("Get %s after the caller reused its buffer (racing=%v): stored bytes changed (err %v)", key, racing, err)
		}
		if viewer != nil {
			got, err := viewer.GetView(key)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("GetView %s after the caller reused its buffer (racing=%v): stored bytes changed (err %v)", key, racing, err)
			}
		}
		scribble.Wait()
		if err := store.Delete(key); err != nil {
			t.Errorf("Delete %s: %v", key, err)
		}
	}
}
