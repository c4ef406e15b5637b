package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"strings"
)

// fingerprintFile holds the exact counters recorded for each workload
// and seed (README.md, "Exact counts").
const fingerprintFile = "perfbench/fingerprints.json"

// counts are exact counters keyed "<isa or scope>.<counter>".
type counts map[string]int64

// diff describes how o differs from c ("" when equal).
func (c counts) diff(o counts) string {
	keys := map[string]bool{}
	for k := range c {
		keys[k] = true
	}
	for k := range o {
		keys[k] = true
	}
	var out []string
	for k := range keys {
		a, aok := c[k]
		b, bok := o[k]
		if a != b || aok != bok {
			out = append(out, fmt.Sprintf("%s %s -> %s", k, fmtCount(a, aok), fmtCount(b, bok)))
		}
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

func fmtCount(v int64, ok bool) string {
	if !ok {
		return "absent"
	}
	return strconv.FormatInt(v, 10)
}

// fingerprints maps workload -> seed -> counts.
type fingerprints map[string]map[string]counts

func loadFingerprints(path string) (fingerprints, error) {
	f := fingerprints{}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return f, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// checkCounts compares this run's exact counters with the recorded
// fingerprint of its workload and seed and says whether they changed.
// A change is reported, not failed: a change that means to move a
// counter (slicing moves smt.queries) is still a correct program. With
// record set, the counters are merged into that file instead.
func (b *bench) checkCounts(w io.Writer, workload, record string) error {
	if len(b.counts) == 0 {
		return nil
	}
	seed := strconv.FormatInt(b.seed, 10)
	if record != "" {
		f, err := loadFingerprints(record)
		if err != nil {
			return err
		}
		if f[workload] == nil {
			f[workload] = map[string]counts{}
		}
		f[workload][seed] = b.counts
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(record, append(data, '\n'), 0o644)
	}
	f, err := loadFingerprints(fingerprintFile)
	if err != nil {
		return err
	}
	want, ok := f[workload][seed]
	switch {
	case !ok:
		fmt.Fprintf(w, "counts: no fingerprint recorded for %s seed %s\n", workload, seed)
	case want.diff(b.counts) != "":
		fmt.Fprintf(w, "counts changed: %s\n", want.diff(b.counts))
	default:
		fmt.Fprintf(w, "counts match the fingerprint of %s seed %s (%d counters)\n", workload, seed, len(want))
	}
	return nil
}
