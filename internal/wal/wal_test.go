package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
)

var testOpts = Options{Magic: "TWAL", Version: 1}

func collect(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var out [][]byte
	if err := l.Load(func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("load: %v", err)
	}
	return out
}

// TestRoundTrip: appended payloads come back intact, in order, across
// a close/reopen cycle.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l); len(got) != 0 {
		t.Fatalf("fresh log loaded %d entries", len(got))
	}
	want := [][]byte{[]byte("one"), []byte("two"), bytes.Repeat([]byte{0xaa}, 5000)}
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != len(want) {
		t.Fatalf("loaded %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("entry %d mismatch", i)
		}
	}
	if st := l2.Stats(); st.Loaded != 3 || st.Corruptions != 0 || st.ReadOnly {
		t.Errorf("stats = %+v", st)
	}
}

// TestTruncatedTail: a torn final entry is skipped on load and
// truncated away by the writer, so the next append lands intact.
func TestTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := Open(path, testOpts)
	for i := 0; i < 4; i++ {
		if err := l.Append([]byte(fmt.Sprintf("entry-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Tear the last entry's payload.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, l2)
	if len(got) != 3 {
		t.Fatalf("loaded %d entries, want 3", len(got))
	}
	if st := l2.Stats(); st.Corruptions != 1 {
		t.Fatalf("corruptions = %d, want 1", st.Corruptions)
	}
	// The writer truncated the torn tail; a fresh append is recovered
	// cleanly by the next opener.
	if err := l2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, _ := Open(path, testOpts)
	defer l3.Close()
	if got := collect(t, l3); len(got) != 4 || string(got[3]) != "after" {
		t.Fatalf("post-recovery load = %d entries (last %q)", len(got), got[len(got)-1])
	}
	if st := l3.Stats(); st.Corruptions != 0 {
		t.Fatalf("recovered file still shows %d corruptions", st.Corruptions)
	}
}

// TestFlippedCRC: a bit flip in a middle entry loses that entry and the
// suffix, never crashes, and counts exactly one corruption.
func TestFlippedCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := Open(path, testOpts)
	off := int64(8) // header
	var flipAt int64
	for i := 0; i < 5; i++ {
		payload := fmt.Sprintf("entry-%d", i)
		if i == 2 {
			flipAt = off + 8 + 1 // one byte into entry 2's payload
		}
		if err := l.Append([]byte(payload)); err != nil {
			t.Fatal(err)
		}
		off += 8 + int64(len(payload))
	}
	l.Close()

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, flipAt); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != 2 {
		t.Fatalf("loaded %d entries, want 2 (prefix before the flip)", len(got))
	}
	if st := l2.Stats(); st.Corruptions != 1 {
		t.Fatalf("corruptions = %d, want 1", st.Corruptions)
	}
}

// TestForeignHeader: a file that is not ours is wholly corrupt — the
// writer starts over rather than misparsing it.
func TestForeignHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("this is not a wal file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := collect(t, l); len(got) != 0 {
		t.Fatalf("foreign file loaded %d entries", len(got))
	}
	if st := l.Stats(); st.Corruptions != 1 {
		t.Fatalf("corruptions = %d, want 1", st.Corruptions)
	}
	if err := l.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedPayload: fn rejecting a payload counts as corruption and
// truncates the suffix like any other bad entry.
func TestRejectedPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := Open(path, testOpts)
	l.Append([]byte("good"))
	l.Append([]byte("bad"))
	l.Append([]byte("unreached"))
	var got int
	err := l.Load(func(p []byte) error {
		if string(p) == "bad" {
			return errors.New("no thanks")
		}
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("accepted %d entries, want 1", got)
	}
	if st := l.Stats(); st.Corruptions != 1 || st.Loaded != 1 {
		t.Fatalf("stats = %+v", st)
	}
	l.Close()
}

// TestLeaseContention: the second opener attaches read-only, every
// mutating method fails with ErrReadOnly, and the lease hands over on
// close.
func TestLeaseContention(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	w, err := Open(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	w.Append([]byte("from-writer"))

	ro, err := Open(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !ro.ReadOnly() {
		t.Fatal("second opener got the writer lease")
	}
	if got := collect(t, ro); len(got) != 1 {
		t.Fatalf("follower loaded %d entries, want 1", len(got))
	}
	if err := ro.Append([]byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Append err = %v, want ErrReadOnly", err)
	}
	if err := ro.AppendBatch([][]byte{[]byte("x")}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only AppendBatch err = %v, want ErrReadOnly", err)
	}
	if err := ro.Rewrite(nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Rewrite err = %v, want ErrReadOnly", err)
	}
	ro.Close()

	// Lease handover: once the writer closes, a new opener owns appends.
	w.Close()
	w2, err := Open(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.ReadOnly() {
		t.Fatal("no lease after the writer closed")
	}
	if err := w2.Append([]byte("second-gen")); err != nil {
		t.Fatal(err)
	}
}

// TestRewrite: an atomic rewrite replaces the contents, keeps the
// lease on the new inode, and stays appendable.
func TestRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := Open(path, testOpts)
	for i := 0; i < 10; i++ {
		l.Append([]byte(fmt.Sprintf("old-%d", i)))
	}
	if err := l.Rewrite([][]byte{[]byte("kept-0"), []byte("kept-1")}); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if st := l.Stats(); st.Rewrites != 1 {
		t.Fatalf("rewrites = %d, want 1", st.Rewrites)
	}
	if err := l.Append([]byte("appended-after")); err != nil {
		t.Fatalf("append after rewrite: %v", err)
	}
	// The lease must still be held by this handle, on the new inode.
	ro, err := Open(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !ro.ReadOnly() {
		t.Fatal("rewrite dropped the writer lease")
	}
	ro.Close()
	l.Close()

	l2, _ := Open(path, testOpts)
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != 3 || string(got[0]) != "kept-0" || string(got[2]) != "appended-after" {
		t.Fatalf("post-rewrite contents: %q", got)
	}
}

// TestOversizeEntry: payloads outside (0, MaxPayload] are rejected
// before touching the file.
func TestOversizeEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := Open(path, Options{Magic: "TWAL", Version: 1, MaxPayload: 64})
	defer l.Close()
	if err := l.Append(bytes.Repeat([]byte{1}, 65)); err == nil {
		t.Fatal("oversize append accepted")
	}
	if err := l.Append(nil); err == nil {
		t.Fatal("empty append accepted")
	}
	if err := l.Append(bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatalf("max-size append rejected: %v", err)
	}
}

// TestInjectedFaults drives every SiteWAL fault kind with exact
// accounting: each fired short write or lease steal surfaces as
// exactly one error with the log healed in place, and each fired CRC
// flip surfaces as exactly one corruption on the next load.
func TestInjectedFaults(t *testing.T) {
	for _, kind := range []faultinject.Kind{
		faultinject.KindShortWrite, faultinject.KindCRCFlip, faultinject.KindLease,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			inj := faultinject.New(42, 3).Enable(faultinject.SiteWAL, kind)
			opts := Options{Magic: "TWAL", Version: 1, Inject: inj}
			path := filepath.Join(t.TempDir(), "log")

			const appends = 60
			var errs, corruptions, survived int64
			for i := 0; i < appends; i++ {
				l, err := Open(path, opts)
				if err != nil {
					t.Fatal(err)
				}
				var n int64
				if err := l.Load(func([]byte) error { n++; return nil }); err != nil {
					t.Fatal(err)
				}
				corruptions += l.Stats().Corruptions
				err = l.Append([]byte(fmt.Sprintf("entry-%d", i)))
				switch {
				case err == nil:
				case errors.Is(err, ErrReadOnly) && kind == faultinject.KindLease:
					errs++
				default:
					var ie *InjectedError
					if !errors.As(err, &ie) || ie.Kind != kind {
						t.Fatalf("append %d: unexpected error %v", i, err)
					}
					errs++
				}
				l.Close()
				survived = n
			}
			// Final load for the accounting: reopen once more.
			l, _ := Open(path, opts)
			var n int64
			if err := l.Load(func([]byte) error { n++; return nil }); err != nil {
				t.Fatal(err)
			}
			corruptions += l.Stats().Corruptions
			survived = n
			l.Close()

			fired := inj.Fired(faultinject.SiteWAL, kind)
			if fired == 0 {
				t.Fatalf("no %s faults fired in %d appends", kind, appends)
			}
			switch kind {
			case faultinject.KindShortWrite, faultinject.KindLease:
				if errs != fired {
					t.Errorf("%d faults fired, %d errors surfaced", fired, errs)
				}
				if corruptions != 0 {
					t.Errorf("%s left %d corruptions on disk", kind, corruptions)
				}
			case faultinject.KindCRCFlip:
				if errs != 0 {
					t.Errorf("silent CRC flips returned %d errors", errs)
				}
				if corruptions != fired {
					t.Errorf("%d flips fired, %d corruptions surfaced", fired, corruptions)
				}
			}
			if want := int64(appends) - fired; survived != want {
				t.Errorf("%d entries survived, want %d (%d appends - %d faults)", survived, want, appends, fired)
			}
		})
	}
}

// FuzzWALLoad loads a valid header followed by arbitrary bytes. Load
// must not panic, must hand the callback only payloads whose frame
// (length and CRC) is intact at the expected offset, and, once the
// writer has truncated the corrupt suffix, a second Load must yield the
// same payloads. The callback rejects payloads starting with 0xff, as
// a consumer's record decoder would.
func FuzzWALLoad(f *testing.F) {
	var seed []byte
	for _, p := range []string{"one", "two", "\xffrejected", "after"} {
		pre := frame([]byte(p))
		seed = append(append(seed, pre[:]...), p...)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-2])
	f.Fuzz(func(t *testing.T, tail []byte) {
		opts := Options{Magic: "TWAL", Version: 1, MaxPayload: 4096}
		path := filepath.Join(t.TempDir(), "log")
		hdr := (&Log{opts: opts}).header()
		raw := append(hdr, tail...)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		load := func() [][]byte {
			var got [][]byte
			off := len(hdr)
			if err := l.Load(func(p []byte) error {
				pre := frame(p)
				if off+len(pre)+len(p) > len(raw) || !bytes.Equal(raw[off:off+len(pre)], pre[:]) ||
					!bytes.Equal(raw[off+len(pre):off+len(pre)+len(p)], p) {
					t.Fatalf("payload %d handed to the callback is not the intact frame at offset %d", len(got), off)
				}
				off += len(pre) + len(p)
				if p[0] == 0xff {
					return errors.New("rejected")
				}
				got = append(got, append([]byte(nil), p...))
				return nil
			}); err != nil {
				t.Fatalf("load: %v", err)
			}
			return got
		}
		first := load()
		second := load()
		if len(first) != len(second) {
			t.Fatalf("second load yielded %d payloads, first %d", len(second), len(first))
		}
		for i := range first {
			if !bytes.Equal(first[i], second[i]) {
				t.Fatalf("payload %d differs between loads", i)
			}
		}
	})
}
