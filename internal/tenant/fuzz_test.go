package tenant

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// FuzzKeysFile feeds arbitrary bytes to the keys-file parser both ways a
// file reaches it — Open at boot and reload over a live key set. Nothing
// panics; a file Open accepts yields exactly its ids as keyed tenants; a
// refused reload leaves the previous key set in force, snapshot for
// snapshot; an accepted one keys exactly the file's ids.
func FuzzKeysFile(f *testing.F) {
	f.Add([]byte(`{"keys": [{"id": "alice", "secret": "s1"}]}`))
	f.Add([]byte(`{"keys": [{"id": "bob", "secret": "b", "disabled": true,
		"limits": {"rate_per_sec": 0.01, "burst": 1, "max_jobs": {"counters": 3}, "max_instructions": 5e9}}]}`))
	f.Add([]byte(`{"keys": [{"id": "a", "secret": "x"}, {"id": "a", "secret": "y"}]}`))
	f.Add([]byte(`{"keys": [{"id": "not a valid id!", "secret": "x"}]}`))
	f.Add([]byte(`{"keys": [{"id": "c", "secret": ""}]}`))
	f.Add([]byte(`{"keys": [{"id": "d", "secret": "z", "limits": {"rate_per_sec": -1, "burst": -5}}]}`))
	f.Add([]byte(`{"keys": null}`))
	f.Add([]byte(`{not json`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "keys.json")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		var parsed keysFile
		json.Unmarshal(data, &parsed) // the oracle's view, read only when Open/reload accept

		if reg, err := Open(path, quietLog()); err == nil {
			if got, want := keyedIDs(reg), fileIDs(parsed); !reflect.DeepEqual(got, want) {
				t.Fatalf("Open accepted the file but keyed %v, want its ids %v", got, want)
			}
		}

		live := writeKeys(t, t.TempDir(), KeyConfig{ID: "alice", Secret: "s1"})
		reg, err := Open(live, quietLog())
		if err != nil {
			t.Fatal(err)
		}
		before := reg.Snapshots()
		if err := os.WriteFile(live, data, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := reg.reload(); err != nil {
			if after := reg.Snapshots(); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused reload (%v) changed the key set:\nbefore %+v\nafter  %+v", err, before, after)
			}
			req := httptest.NewRequest("GET", "/", nil)
			req.Header.Set("Authorization", "Bearer s1")
			if tn, aerr := reg.Authenticate(req); aerr != nil || tn.ID() != "alice" {
				t.Fatalf("refused reload (%v) locked out the previous key: %v", err, aerr)
			}
			return
		}
		if got, want := keyedIDs(reg), fileIDs(parsed); !reflect.DeepEqual(got, want) {
			t.Fatalf("accepted reload keyed %v, want the file's ids %v", got, want)
		}
	})
}

// keyedIDs lists the registry's key-backed tenants, sorted.
func keyedIDs(reg *Registry) []string {
	ids := []string{}
	for _, s := range reg.Snapshots() {
		if s.Keyed {
			ids = append(ids, s.ID)
		}
	}
	return ids
}

// fileIDs lists a keys file's ids in sorted order.
func fileIDs(kf keysFile) []string {
	ids := []string{}
	for _, k := range kf.Keys {
		ids = append(ids, k.ID)
	}
	slices.Sort(ids)
	return ids
}
