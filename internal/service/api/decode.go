package api

import (
	"bytes"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
)

// DecodeRunResponse decodes a POST /v1/run success body exactly as
// json.Unmarshal into a zero RunResponse would: the same value, or the
// same error.
func DecodeRunResponse(b []byte) (RunResponse, error) {
	var resp RunResponse
	if decode(b, responsePlan, reflect.ValueOf(&resp).Elem()) {
		return resp, nil
	}
	resp = RunResponse{}
	err := json.Unmarshal(b, &resp)
	return resp, err
}

// DecodeRunRequest decodes a POST /v1/run body exactly as a json.Decoder
// that disallows unknown fields would, then requires that nothing but
// white space follows the object and that the batch names at least one
// spec. An error is the request's 400 answer.
func DecodeRunRequest(b []byte) (RunRequest, error) {
	var req RunRequest
	if !decode(b, requestPlan, reflect.ValueOf(&req).Elem()) {
		req = RunRequest{}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return RunRequest{}, fmt.Errorf("decoding request: %w", err)
		}
		if _, err := dec.Token(); err != io.EOF {
			return RunRequest{}, errors.New("decoding request: data after the request object")
		}
	}
	if len(req.Specs) == 0 {
		return RunRequest{}, errors.New("service: empty batch")
	}
	return req, nil
}

// The one-pass reader. It takes the form json.Marshal writes and nothing
// else: white space; objects whose keys each name a field exactly, once;
// strings with no escape, control byte or byte of 0x80 or above; integers
// without fraction, exponent or leading zero that fit their field; true
// and false; arrays; slices; pointers; and text codecs, through their
// UnmarshalText. On that form encoding/json sets every value the reader
// sets, so the two decode alike. Anything else (null, an escape, a float,
// a key that matches only when case is folded, a repeated key, a
// json.Unmarshaler, an UnmarshalText error) makes the reader give up, and
// its callers decode the same bytes again with encoding/json.

// kind says how the reader decodes a value of one type.
type kind uint8

const (
	slowKind   kind = iota // never on the fast path
	boolKind               // true or false
	intKind                // a canonical integer that fits in bits
	stringKind             // a plain string
	textKind               // a plain string, through the UnmarshalText of the value's address
	structKind             // an object of fields
	sliceKind              // an array, as a new slice
	arrayKind              // an array no longer than the Go array
	ptrKind                // the pointee, in a new allocation
)

// plan is how the reader decodes one Go type. Plans are built at package
// init and only read afterwards, so concurrent decodes share nothing
// mutable.
type plan struct {
	kind   kind
	typ    reflect.Type
	bits   int     // intKind: the integer's size
	elem   *plan   // sliceKind, arrayKind, ptrKind
	fields []field // structKind, in declaration order
}

// field is one struct field the JSON form names.
type field struct {
	name  string // the key encoding/json reads: the tag name, or the Go name
	index int
	plan  *plan
}

var (
	responsePlan = planFor(reflect.TypeFor[RunResponse](), map[reflect.Type]*plan{})
	requestPlan  = planFor(reflect.TypeFor[RunRequest](), map[reflect.Type]*plan{})

	unmarshalerType     = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshalerType = reflect.TypeFor[encoding.TextUnmarshaler]()
	numberType          = reflect.TypeFor[json.Number]()
)

// planFor returns the plan of t. It mirrors how encoding/json picks a
// decoder: a json.Unmarshaler first, then a text codec, then the kind.
// A pointer that is a text codec (*core.VerifyError) plans as a pointer
// to a textKind pointee: the reader allocates the pointee and calls
// UnmarshalText on its address, as encoding/json does. Types the reader
// does not take, json.Number (a string that must spell a number), and
// struct shapes whose field names it does not resolve as encoding/json
// does, plan as slowKind.
func planFor(t reflect.Type, plans map[reflect.Type]*plan) *plan {
	if p := plans[t]; p != nil {
		return p
	}
	p := &plan{typ: t}
	plans[t] = p
	pt := reflect.PointerTo(t)
	switch {
	case t.Implements(unmarshalerType) || pt.Implements(unmarshalerType), t == numberType:
	case t.Kind() != reflect.Pointer && pt.Implements(textUnmarshalerType):
		p.kind = textKind
	default:
		switch t.Kind() {
		case reflect.Bool:
			p.kind = boolKind
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			p.kind, p.bits = intKind, t.Bits()
		case reflect.String:
			p.kind = stringKind
		case reflect.Struct:
			p.fields = fieldsOf(t, plans)
			if p.fields != nil {
				p.kind = structKind
			}
		case reflect.Slice:
			p.kind, p.elem = sliceKind, planFor(t.Elem(), plans)
		case reflect.Array:
			p.kind, p.elem = arrayKind, planFor(t.Elem(), plans)
		case reflect.Pointer:
			p.kind, p.elem = ptrKind, planFor(t.Elem(), plans)
		}
	}
	return p
}

// fieldsOf lists the fields encoding/json decodes into a struct t, or
// returns nil where its rules go beyond what the reader resolves: an
// embedded field, a tag name other than letters, digits and underscores,
// a ",string" option, two fields of one name, or more fields than the
// reader's mask of seen keys holds.
func fieldsOf(t reflect.Type, plans map[reflect.Type]*plan) []field {
	fields := make([]field, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Anonymous {
			return nil
		}
		tag := sf.Tag.Get("json")
		if !sf.IsExported() || tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if slices.Contains(strings.Split(opts, ","), "string") {
			return nil
		}
		for _, c := range []byte(name) {
			if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_') {
				return nil
			}
		}
		f := field{name: name, index: i, plan: planFor(sf.Type, plans)}
		if f.name == "" {
			f.name = sf.Name
		}
		for _, g := range fields {
			if g.name == f.name {
				return nil
			}
		}
		fields = append(fields, f)
	}
	if len(fields) > 64 {
		return nil
	}
	return fields
}

// decode fills the zero value v from b, which must hold one value of v's
// planned form and nothing after it but white space, and reports whether
// it could. On false v may be partly filled.
func decode(b []byte, p *plan, v reflect.Value) bool {
	r := reader{b: b}
	if !r.value(p, v) {
		return false
	}
	r.space()
	return r.i == len(b)
}

// reader is one decode's position in its input.
type reader struct {
	b []byte
	i int
}

// space skips white space and returns the next byte, or 0 at the end of
// the input (a 0 byte inside it is never valid JSON either).
func (r *reader) space() byte {
	for ; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// value decodes the next value into v, which is zero, by plan p.
func (r *reader) value(p *plan, v reflect.Value) bool {
	switch p.kind {
	case boolKind:
		r.space()
		switch rest := r.b[r.i:]; {
		case bytes.HasPrefix(rest, []byte("true")):
			v.SetBool(true)
			r.i += len("true")
		case bytes.HasPrefix(rest, []byte("false")):
			r.i += len("false")
		default:
			return false
		}
	case intKind:
		n, ok := r.int(p.bits)
		if !ok {
			return false
		}
		v.SetInt(n)
	case stringKind:
		s, ok := r.string()
		if !ok {
			return false
		}
		v.SetString(string(s))
	case textKind:
		s, ok := r.string()
		return ok && v.Addr().Interface().(encoding.TextUnmarshaler).UnmarshalText(s) == nil
	case structKind:
		return r.object(p, v)
	case sliceKind:
		return r.slice(p, v)
	case arrayKind:
		return r.array(p, v)
	case ptrKind:
		pv := reflect.New(p.typ.Elem())
		if !r.value(p.elem, pv.Elem()) {
			return false
		}
		v.Set(pv)
	default:
		return false
	}
	return true
}

// object decodes an object into the struct v by plan p. Keys arrive in
// field order from json.Marshal, so each is first compared with the field
// after the last one matched.
func (r *reader) object(p *plan, v reflect.Value) bool {
	if r.space() != '{' {
		return false
	}
	r.i++
	if r.space() == '}' {
		r.i++
		return true
	}
	var seen uint64
	next := 0
	for {
		if r.space() != '"' {
			return false
		}
		f := p.field(r.b[r.i+1:], next)
		if f < 0 || seen&(1<<f) != 0 {
			return false
		}
		seen |= 1 << f
		r.i += len(p.fields[f].name) + 2
		if r.space() != ':' {
			return false
		}
		r.i++
		if !r.value(p.fields[f].plan, v.Field(p.fields[f].index)) {
			return false
		}
		next = f + 1
		switch r.space() {
		case ',':
			r.i++
		case '}':
			r.i++
			return true
		default:
			return false
		}
	}
}

// field returns the index in p.fields of the field whose name, and then
// a closing quote, b starts with, trying index next first, or -1 if none
// is. No name holds a quote or a backslash, so a name matches only a key
// that is exactly that name.
func (p *plan) field(b []byte, next int) int {
	if next < len(p.fields) && named(b, p.fields[next].name) {
		return next
	}
	for i := range p.fields {
		if named(b, p.fields[i].name) {
			return i
		}
	}
	return -1
}

// named reports whether b starts with name and then a quote.
func named(b []byte, name string) bool {
	return len(b) > len(name) && b[len(name)] == '"' && string(b[:len(name)]) == name
}

// slice decodes an array into a new slice set into v by plan p. An empty
// array gives an empty slice, not nil, as in encoding/json.
func (r *reader) slice(p *plan, v reflect.Value) bool {
	if r.space() != '[' {
		return false
	}
	r.i++
	if r.space() == ']' {
		r.i++
		v.Set(reflect.MakeSlice(p.typ, 0, 0))
		return true
	}
	for n := 0; ; n++ {
		if n == v.Cap() {
			v.Grow(1)
		}
		v.SetLen(n + 1)
		if !r.value(p.elem, v.Index(n)) {
			return false
		}
		if !r.more() {
			return r.closed()
		}
	}
}

// array decodes an array into the Go array v by plan p. A shorter array
// leaves the rest zero, as encoding/json does; a longer one, whose extra
// elements encoding/json skips unread, is left to it.
func (r *reader) array(p *plan, v reflect.Value) bool {
	if r.space() != '[' {
		return false
	}
	r.i++
	if r.space() == ']' {
		r.i++
		return true
	}
	for n := 0; n < v.Len(); n++ {
		if !r.value(p.elem, v.Index(n)) {
			return false
		}
		if !r.more() {
			return r.closed()
		}
	}
	return false
}

// more consumes the comma before another array element and reports
// whether there was one.
func (r *reader) more() bool {
	if r.space() == ',' {
		r.i++
		return true
	}
	return false
}

// closed consumes the bracket that ends an array and reports whether it
// was there.
func (r *reader) closed() bool {
	if r.space() == ']' {
		r.i++
		return true
	}
	return false
}

// string reads a string with no escape, control byte or byte of 0x80 or
// above, whose text encoding/json would take verbatim, and returns that
// text: a slice of the input.
func (r *reader) string() ([]byte, bool) {
	if r.space() != '"' {
		return nil, false
	}
	s := r.b[r.i+1:]
	n := bytes.IndexByte(s, '"')
	if n < 0 {
		return nil, false
	}
	s = s[:n]
	for _, c := range s {
		if c < ' ' || c == '\\' || c >= 0x80 {
			return nil, false
		}
	}
	r.i += n + 2
	return s, true
}

// int reads an integer with no leading zero that fits in a signed integer
// of bits. A fraction or exponent is left unread, so the delimiter the
// caller expects next is missing.
func (r *reader) int(bits int) (int64, bool) {
	r.space()
	b, i := r.b, r.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		u = u*10 + uint64(d)
	}
	// Nineteen digits cannot overflow u; a longer integer overflows every
	// field the reader takes.
	if n := i - start; n == 0 || n > 19 || n > 1 && b[start] == '0' {
		return 0, false
	}
	limit := uint64(1) << (bits - 1)
	if neg && u > limit || !neg && u >= limit {
		return 0, false
	}
	r.i = i
	if neg {
		return int64(-u), true
	}
	return int64(u), true
}
