package storage_test

import (
	"testing"

	"moc/internal/storage"
	"moc/internal/storage/storagetest"
)

// External test package: storagetest imports storage.
func TestPutDoesNotRetain(t *testing.T) {
	fs, err := storage.NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, store := range map[string]storage.PersistStore{
		"mem":      storage.NewMemStore(),
		"fs":       fs,
		"snapshot": storage.NewSnapshotStore(),
	} {
		t.Run(name, func(t *testing.T) { storagetest.CheckPutDoesNotRetain(t, store) })
	}
}
