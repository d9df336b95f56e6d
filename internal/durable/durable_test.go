package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"encore/internal/faultinject"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// requireFile asserts path holds want and no temporary file sits beside it.
func requireFile(t *testing.T, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("%s holds %q, want %q", filepath.Base(path), got, want)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind (stat err = %v)", err)
	}
}

func TestReplaceFileSyncsDirectoryOnlyOnCreation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	ffs := faultinject.NewFaultFS()

	if err := ReplaceFile(ffs, path, writeString("one\n")); err != nil {
		t.Fatal(err)
	}
	requireFile(t, path, "one\n")
	if got := ffs.Stats().Syncs; got != 2 {
		t.Fatalf("creating the file issued %d fsyncs, want 2 (file, parent directory)", got)
	}

	if err := ReplaceFile(ffs, path, writeString("two\n")); err != nil {
		t.Fatal(err)
	}
	requireFile(t, path, "two\n")
	if got := ffs.Stats().Syncs; got != 3 {
		t.Fatalf("replacing the file issued %d fsyncs, want 1 (file only)", got-2)
	}
}

func TestReplaceFileCrashLeavesOldOrNew(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	ffs := faultinject.NewFaultFS()
	if err := ReplaceFile(ffs, path, writeString("old\n")); err != nil {
		t.Fatal(err)
	}

	// The machine dies with the replacement written but not yet renamed.
	err := ReplaceFile(ffs, path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "new\n"); err != nil {
			return err
		}
		_, err := ffs.Crash(2)
		return err
	})
	if !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("ReplaceFile across a crash = %v, want ErrCrashed", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "old\n" {
		t.Fatalf("after a crash before the rename the file holds %q (%v), want the old bytes", got, err)
	}

	// And right after a completed replacement: the new bytes were fsynced
	// before they took the name.
	ffs = faultinject.NewFaultFS()
	if err := ReplaceFile(ffs, path, writeString("new\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := ffs.Crash(0); err != nil {
		t.Fatal(err)
	}
	requireFile(t, path, "new\n")
}

func TestReplaceFileFailureKeepsOldAndRemovesTmp(t *testing.T) {
	faults := []struct {
		name string
		arm  func(*faultinject.FaultFS)
		want error
	}{
		{"fsync failure", (*faultinject.FaultFS).InjectFsyncFailures, faultinject.ErrInjectedFsync},
		{"short write", func(ffs *faultinject.FaultFS) { ffs.InjectShortWrites(1) }, io.ErrShortWrite},
		{"no space", func(ffs *faultinject.FaultFS) { ffs.SetWriteBudget(1) }, faultinject.ErrInjectedNoSpace},
	}
	for _, tc := range faults {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state.json")
			ffs := faultinject.NewFaultFS()
			if err := ReplaceFile(ffs, path, writeString("old\n")); err != nil {
				t.Fatal(err)
			}
			tc.arm(ffs)
			if err := ReplaceFile(ffs, path, writeString("new\n")); !errors.Is(err, tc.want) {
				t.Fatalf("ReplaceFile = %v, want %v", err, tc.want)
			}
			requireFile(t, path, "old\n")
		})
	}

	t.Run("write callback error", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "state.json")
		boom := errors.New("boom")
		err := ReplaceFile(faultinject.OS(), path, func(io.Writer) error { return boom })
		if !errors.Is(err, boom) {
			t.Fatalf("ReplaceFile = %v, want the callback's error", err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("a failed first write created the file (stat err = %v)", err)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("temporary file left behind (stat err = %v)", err)
		}
	})
}
