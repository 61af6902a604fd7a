package core

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeSequential, ModeSingle, ModeDouble, ModeSlipstream} {
		got, err := ParseMode(m.String())
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", m.String(), err)
		}
		if got != m {
			t.Errorf("ParseMode(%q) = %v, want %v", m.String(), got, m)
		}
	}
	if got, err := ParseMode("SLIPSTREAM"); err != nil || got != ModeSlipstream {
		t.Errorf("ParseMode is not case-insensitive: %v, %v", got, err)
	}
	if _, err := ParseMode("bogus"); !errors.Is(err, ErrUnknownMode) {
		t.Errorf("ParseMode(bogus) = %v, want ErrUnknownMode", err)
	}
}

func TestParseARSyncRoundTrip(t *testing.T) {
	for _, ar := range ARSyncs {
		got, err := ParseARSync(ar.String())
		if err != nil {
			t.Fatalf("ParseARSync(%q): %v", ar.String(), err)
		}
		if got != ar {
			t.Errorf("ParseARSync(%q) = %v, want %v", ar.String(), got, ar)
		}
	}
	if got, err := ParseARSync("g0"); err != nil || got != ZeroTokenGlobal {
		t.Errorf("ParseARSync is not case-insensitive: %v, %v", got, err)
	}
	if _, err := ParseARSync("X9"); !errors.Is(err, ErrUnknownARSync) {
		t.Errorf("ParseARSync(X9) = %v, want ErrUnknownARSync", err)
	}
}

func TestModeAndARSyncJSONAreSymbolic(t *testing.T) {
	b, err := json.Marshal(struct {
		M Mode
		A ARSync
	}{ModeDouble, OneTokenGlobal})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"double"`, `"G1"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("JSON %s missing %s", b, want)
		}
	}
	var got struct {
		M Mode
		A ARSync
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.M != ModeDouble || got.A != OneTokenGlobal {
		t.Errorf("round trip = %+v", got)
	}
	if err := json.Unmarshal([]byte(`"warp"`), new(Mode)); err == nil {
		t.Error("bad mode name unmarshaled")
	}
	if _, err := json.Marshal(Mode(99)); err == nil {
		t.Error("out-of-range mode marshaled")
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	res := runSum(t, Options{
		Mode: ModeSlipstream, CMPs: 4, ARSync: OneTokenGlobal,
		TransparentLoads: true, SelfInvalidate: true,
	})
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, res) {
		t.Fatalf("round trip changed result:\n got %+v\nwant %+v", &got, res)
	}
}

// TestResultJSONPreservesVerifyErr pins VerifyErr's wire form: a failure
// unwraps to the kernel's error before a round trip and keeps its message
// after it, and a present "verify_err", even an empty one, is a failure.
func TestResultJSONPreservesVerifyErr(t *testing.T) {
	errSum := errors.New("sum = 1, want 2")
	res := &Result{Kernel: "sum", VerifyErr: &VerifyError{Msg: errSum.Error(), Err: errSum}}
	if !errors.Is(res.VerifyErr, errSum) {
		t.Errorf("VerifyErr %v does not unwrap to the kernel's error", res.VerifyErr)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.VerifyErr == nil || got.VerifyErr.Error() != errSum.Error() {
		t.Errorf("VerifyErr round trip = %v", got.VerifyErr)
	}

	var empty Result
	if err := json.Unmarshal([]byte(`{"kernel":"sum","verify_err":""}`), &empty); err != nil {
		t.Fatal(err)
	}
	if empty.VerifyErr == nil {
		t.Error(`"verify_err":"" decoded as a verified result`)
	}
}

func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want error
	}{
		{"unknown mode", Options{Mode: Mode(7), CMPs: 2}, ErrUnknownMode},
		{"zero CMPs", Options{Mode: ModeSingle, CMPs: 0}, ErrCMPCount},
		{"unknown arsync", Options{Mode: ModeSlipstream, CMPs: 2, ARSync: ARSync(9)}, ErrUnknownARSync},
		{"si without tl", Options{Mode: ModeSlipstream, CMPs: 2, SelfInvalidate: true}, ErrSelfInvalidateNeedsTL},
		{"arsync outside slipstream", Options{Mode: ModeSingle, CMPs: 2, ARSync: ZeroTokenGlobal}, ErrSlipstreamOnly},
		{"forward queue outside slipstream", Options{Mode: ModeDouble, CMPs: 2, ForwardQueue: true}, ErrSlipstreamOnly},
		{"transparent loads outside slipstream", Options{Mode: ModeSequential, CMPs: 1, TransparentLoads: true}, ErrSlipstreamOnly},
	}
	for _, tc := range cases {
		if err := tc.opts.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate() = %v, want %v", tc.name, err, tc.want)
		}
	}
	ok := Options{Mode: ModeSlipstream, CMPs: 2, ARSync: ZeroTokenLocal, TransparentLoads: true, SelfInvalidate: true}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}
