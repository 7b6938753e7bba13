package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzAppendIndent checks the one JSON writer against encoding/json. For
// values built from the fuzzed strings, numbers and booleans — nested
// maps and slices, empty {} and [], keys that need escaping, a raw
// message — encodeJSON equals a json.Encoder indenting by two spaces,
// byte for byte and error for error. For any raw input json.Valid
// accepts, appendIndent of its json.Compact form equals json.Indent of
// the input, whose trailing whitespace json.Indent would keep and the
// compact form drops.
func FuzzAppendIndent(f *testing.F) {
	f.Add("key", "value", 1.5, int64(-7), true, []byte(`{"a":[1,{},[]],"b":{"c":null}}`))
	f.Add(`q"uo\te`, "<script>&amp;</script>", 0.0, int64(0), false, []byte(` [ "x\"]", {"y": "{,:}"} ] `))
	f.Add("\xff\xfe", "  ", 1e300, int64(1)<<62, true, []byte(`"\\"`))
	f.Add("", "", -0.0, int64(-1), false, []byte(`{"":{"":[[[[]]]]}}`))

	reference := func(v any) ([]byte, error) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err := enc.Encode(v)
		return buf.Bytes(), err
	}
	f.Fuzz(func(t *testing.T, s1, s2 string, n float64, i int64, b bool, raw []byte) {
		var rawValue any = json.RawMessage(`{}`)
		if json.Valid(raw) {
			rawValue = json.RawMessage(raw)
		}
		v := map[string]any{
			s1:        []any{s2, n, i, b, nil, map[string]any{}, []any{}, []string{}},
			s2 + "<>": map[string]any{s1: map[string]any{"list": []any{[]any{s1, s2}, map[string]bool{s2: b}}}},
			"raw":     rawValue,
			"struct": struct {
				Name  string   `json:"name"`
				Count int64    `json:"count,omitempty"`
				Tags  []string `json:"tags"`
				Inner struct{} `json:"inner"`
			}{Name: s1, Count: i, Tags: []string{s2, s1}},
		}
		got, gotErr := encodeJSON(v)
		want, wantErr := reference(v)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("encodeJSON error %v, json.Encoder error %v", gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("encodeJSON differs from json.Encoder:\ngot  %q\nwant %q", got, want)
		}

		if !json.Valid(raw) {
			return
		}
		var compact, indented bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			t.Fatalf("Compact of valid input: %v", err)
		}
		if err := json.Indent(&indented, bytes.TrimRight(raw, " \t\r\n"), "", "  "); err != nil {
			t.Fatalf("Indent of valid input: %v", err)
		}
		if got := appendIndent(nil, compact.Bytes()); !bytes.Equal(got, indented.Bytes()) {
			t.Fatalf("appendIndent(Compact(%q)) differs from json.Indent:\ngot  %q\nwant %q", raw, got, indented.Bytes())
		}
	})
}
