package core

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestParseModeRejectsMalformedNames pins the failure surface of
// ParseMode: empty strings, whitespace, prefixes, and near-misses all
// return ErrUnknownMode, and the error names the offending input.
func TestParseModeRejectsMalformedNames(t *testing.T) {
	for _, bad := range []string{"", " ", "slip", "slipstreamm", " slipstream", "sequential ", "Mode(2)"} {
		_, err := ParseMode(bad)
		if !errors.Is(err, ErrUnknownMode) {
			t.Errorf("ParseMode(%q) = %v, want ErrUnknownMode", bad, err)
			continue
		}
		if !strings.Contains(err.Error(), strings.TrimSpace(bad)) && bad != "" && bad != " " {
			t.Errorf("ParseMode(%q) error %q does not name the input", bad, err)
		}
	}
}

// TestParseARSyncRejectsMalformedNames does the same for the four
// policy abbreviations.
func TestParseARSyncRejectsMalformedNames(t *testing.T) {
	for _, bad := range []string{"", " ", "L", "L2", "G01", " G0", "L0 ", "local"} {
		if _, err := ParseARSync(bad); !errors.Is(err, ErrUnknownARSync) {
			t.Errorf("ParseARSync(%q) = %v, want ErrUnknownARSync", bad, err)
		}
	}
}

// TestSymbolicJSONRejectsMalformedValues checks the unmarshal side:
// non-string JSON and unknown names fail with the typed errors rather
// than leaving a zero value behind.
func TestSymbolicJSONRejectsMalformedValues(t *testing.T) {
	if err := json.Unmarshal([]byte(`5`), new(Mode)); err == nil {
		t.Error("numeric mode unmarshaled")
	}
	if err := json.Unmarshal([]byte(`{}`), new(Mode)); err == nil {
		t.Error("object mode unmarshaled")
	}
	if err := json.Unmarshal([]byte(`"warped"`), new(Mode)); !errors.Is(err, ErrUnknownMode) {
		t.Errorf("unknown mode name: %v, want ErrUnknownMode", err)
	}
	if err := json.Unmarshal([]byte(`7`), new(ARSync)); err == nil {
		t.Error("numeric policy unmarshaled")
	}
	if err := json.Unmarshal([]byte(`"X9"`), new(ARSync)); !errors.Is(err, ErrUnknownARSync) {
		t.Errorf("unknown policy name: %v, want ErrUnknownARSync", err)
	}
	if _, err := json.Marshal(ARSync(-1)); err == nil {
		t.Error("out-of-range policy marshaled")
	}
}

// TestValidateRejectsOutOfRangeValues extends the typed-error table
// with the boundary cases: negative enum values, negative CMP counts, a
// negative store-buffer depth, a negative synchronization occupancy, and
// the adaptive policy outside slipstream mode.
func TestValidateRejectsOutOfRangeValues(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want error
	}{
		{"negative mode", Options{Mode: Mode(-1), CMPs: 2}, ErrUnknownMode},
		{"negative CMPs", Options{Mode: ModeSingle, CMPs: -4}, ErrCMPCount},
		{"negative arsync", Options{Mode: ModeSlipstream, CMPs: 2, ARSync: ARSync(-2)}, ErrUnknownARSync},
		{"adaptive outside slipstream", Options{Mode: ModeDouble, CMPs: 2, AdaptiveARSync: true}, ErrSlipstreamOnly},
		{"negative store buffer", Options{Mode: ModeSingle, CMPs: 2, StoreBuffer: -1}, ErrStoreBuffer},
		{"negative sync occupancy", Options{Mode: ModeSingle, CMPs: 2, SyncOcc: -1}, ErrSyncOcc},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate() = %v, want %v", tc.name, err, tc.want)
			continue
		}
		// Each failure must stay distinguishable: it matches exactly one
		// of the typed option errors.
		matches := 0
		for _, sentinel := range []error{ErrUnknownMode, ErrUnknownARSync, ErrCMPCount, ErrSelfInvalidateNeedsTL, ErrSlipstreamOnly, ErrStoreBuffer, ErrSyncOcc} {
			if errors.Is(err, sentinel) {
				matches++
			}
		}
		if matches != 1 {
			t.Errorf("%s: error %v matches %d sentinels, want exactly 1", tc.name, err, matches)
		}
	}
}
