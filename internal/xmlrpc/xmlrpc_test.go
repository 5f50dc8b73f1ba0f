package xmlrpc

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func roundTripValue(t *testing.T, v any) any {
	t.Helper()
	data, err := MarshalResponse(v)
	if err != nil {
		t.Fatalf("marshal %v: %v", v, err)
	}
	got, err := UnmarshalResponse(data)
	if err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	return got
}

func TestScalarRoundTrips(t *testing.T) {
	cases := []any{
		int64(0), int64(-42), int64(1 << 40),
		true, false,
		"hello", "", "with <xml> & entities", "unicode: π≈3.14159",
		3.14159, -1e300, 0.0,
	}
	for _, v := range cases {
		got := roundTripValue(t, v)
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %#v -> %#v", v, got)
		}
	}
}

func TestIntNormalization(t *testing.T) {
	// Plain int marshals as <int> and comes back int64.
	got := roundTripValue(t, 7)
	if got != int64(7) {
		t.Errorf("got %#v, want int64(7)", got)
	}
}

func TestBase64RoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		got := roundTripValue(t, b)
		gb, ok := got.([]byte)
		if !ok {
			return false
		}
		if len(gb) == 0 && len(b) == 0 {
			return true
		}
		return reflect.DeepEqual(gb, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		if !isValidXMLText(s) {
			return true // XML cannot carry arbitrary control bytes
		}
		return roundTripValue(t, s) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// isValidXMLText reports whether s survives XML 1.0 encoding.
func isValidXMLText(s string) bool {
	for _, r := range s {
		if r == 0x09 || r == 0x0A || r == 0x0D {
			continue
		}
		if r < 0x20 || r == 0xFFFD || r == 0xFFFE || r == 0xFFFF {
			return false
		}
	}
	return true
}

func TestArrayRoundTrip(t *testing.T) {
	v := []any{int64(1), "two", 3.0, true, []any{int64(4)}}
	got := roundTripValue(t, v)
	if !reflect.DeepEqual(got, v) {
		t.Errorf("got %#v, want %#v", got, v)
	}
}

func TestEmptyArray(t *testing.T) {
	got := roundTripValue(t, []any{})
	if arr, ok := got.([]any); !ok || len(arr) != 0 {
		t.Errorf("got %#v", got)
	}
}

func TestStringSliceMarshalsAsArray(t *testing.T) {
	got := roundTripValue(t, []string{"a", "b"})
	want := []any{"a", "b"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %#v, want %#v", got, want)
	}
}

func TestStructRoundTrip(t *testing.T) {
	v := map[string]any{
		"id":     int64(7),
		"name":   "task",
		"urls":   []any{"http://a", "http://b"},
		"nested": map[string]any{"x": 1.5},
		"flag":   true,
	}
	got := roundTripValue(t, v)
	if !reflect.DeepEqual(got, v) {
		t.Errorf("got %#v, want %#v", got, v)
	}
}

func TestNilMarshalsAsEmptyString(t *testing.T) {
	got := roundTripValue(t, nil)
	if got != "" {
		t.Errorf("got %#v, want empty string", got)
	}
}

func TestUnsupportedType(t *testing.T) {
	if _, err := MarshalResponse(struct{}{}); err == nil {
		t.Error("expected error for unsupported type")
	}
}

func TestCallRoundTrip(t *testing.T) {
	data, err := MarshalCall("task_done", []any{int64(3), "ok", []any{"u1", "u2"}})
	if err != nil {
		t.Fatal(err)
	}
	method, args, err := UnmarshalCall(data)
	if err != nil {
		t.Fatal(err)
	}
	if method != "task_done" {
		t.Errorf("method = %q", method)
	}
	want := []any{int64(3), "ok", []any{"u1", "u2"}}
	if !reflect.DeepEqual(args, want) {
		t.Errorf("args = %#v, want %#v", args, want)
	}
}

func TestCallNoArgs(t *testing.T) {
	data, err := MarshalCall("ping", nil)
	if err != nil {
		t.Fatal(err)
	}
	method, args, err := UnmarshalCall(data)
	if err != nil || method != "ping" || len(args) != 0 {
		t.Errorf("method=%q args=%v err=%v", method, args, err)
	}
}

func TestFaultRoundTrip(t *testing.T) {
	data, err := MarshalFault(&Fault{Code: 42, Message: "boom <&>"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = UnmarshalResponse(data)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("got %v, want *Fault", err)
	}
	if f.Code != 42 || f.Message != "boom <&>" {
		t.Errorf("fault = %+v", f)
	}
}

func TestPythonInteropFormats(t *testing.T) {
	// Accept documents in the exact shapes CPython's xmlrpc.client
	// produces: i4 tags, untyped <value> strings, whitespace.
	doc := `<?xml version="1.0"?>
<methodResponse>
  <params>
    <param>
      <value><array><data>
        <value><i4>12</i4></value>
        <value>bare string</value>
        <value><boolean>1</boolean></value>
        <value><double>2.5</double></value>
      </data></array></value>
    </param>
  </params>
</methodResponse>`
	got, err := UnmarshalResponse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := []any{int64(12), "bare string", true, 2.5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %#v, want %#v", got, want)
	}
}

func TestServerClientEndToEnd(t *testing.T) {
	srv := NewServer()
	srv.Register("echo", func(args []any) (any, error) {
		return args, nil
	})
	srv.Register("add", func(args []any) (any, error) {
		a, ok1 := args[0].(int64)
		b, ok2 := args[1].(int64)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("add wants two ints")
		}
		return a + b, nil
	})
	srv.Register("fail", func(args []any) (any, error) {
		return nil, &Fault{Code: 99, Message: "deliberate"}
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	sum, err := c.Call("add", int64(2), int64(40))
	if err != nil {
		t.Fatal(err)
	}
	if sum != int64(42) {
		t.Errorf("add = %v", sum)
	}

	echoed, err := c.Call("echo", "x", int64(1), true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(echoed, []any{"x", int64(1), true}) {
		t.Errorf("echo = %#v", echoed)
	}

	_, err = c.Call("fail")
	var f *Fault
	if !errors.As(err, &f) || f.Code != 99 {
		t.Errorf("fail call: %v", err)
	}

	_, err = c.Call("nosuchmethod")
	if !errors.As(err, &f) || f.Code != -32601 {
		t.Errorf("missing method: %v", err)
	}
}

func TestServerErrorBecomesFault(t *testing.T) {
	srv := NewServer()
	srv.Register("oops", func(args []any) (any, error) {
		return nil, errors.New("plain error")
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	_, err := NewClient(ts.URL).Call("oops")
	var f *Fault
	if !errors.As(err, &f) || !strings.Contains(f.Message, "plain error") {
		t.Errorf("got %v", err)
	}
}

func TestServerRejectsGET(t *testing.T) {
	ts := httptest.NewServer(NewServer())
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp.StatusCode)
	}
}

func TestServerMalformedBody(t *testing.T) {
	ts := httptest.NewServer(NewServer())
	defer ts.Close()
	resp, err := http.Post(ts.URL, "text/xml", strings.NewReader("this is not xml"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Must come back as a parse fault, not a transport error.
	c := NewClient(ts.URL)
	_, cerr := c.Call("x")
	_ = cerr // different doc; just ensure no panic on the malformed one
	if resp.StatusCode != http.StatusOK {
		t.Errorf("malformed body status = %d (should still be a fault document)", resp.StatusCode)
	}
}

func TestDoubleSpecials(t *testing.T) {
	for _, v := range []float64{math.MaxFloat64, math.SmallestNonzeroFloat64} {
		got := roundTripValue(t, v)
		if got != v {
			t.Errorf("double %v -> %v", v, got)
		}
	}
}

func BenchmarkCallRoundTrip(b *testing.B) {
	srv := NewServer()
	srv.Register("ping", func(args []any) (any, error) { return true, nil })
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("ping"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalTaskStruct(b *testing.B) {
	task := map[string]any{
		"task_id":   int64(123),
		"dataset":   int64(7),
		"kind":      "map",
		"func":      "wordcount_map",
		"splits":    int64(16),
		"partition": "hash",
		"urls":      []any{"http://n1:9000/data/a", "http://n2:9000/data/b"},
	}
	for i := 0; i < b.N; i++ {
		if _, err := MarshalResponse(task); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNestedValuePropertyRoundTrip builds random nested structures of
// the supported types and checks exact round trips through the wire
// format — the closest thing to a fuzzer the control plane gets.
func TestNestedValuePropertyRoundTrip(t *testing.T) {
	var build func(r *rand.Rand, depth int) any
	build = func(r *rand.Rand, depth int) any {
		choice := r.Intn(6)
		if depth <= 0 {
			choice = r.Intn(4)
		}
		switch choice {
		case 0:
			return int64(r.Uint64())
		case 1:
			return r.Intn(2) == 0
		case 2:
			return float64(r.Intn(1<<20)) / 64 // dyadic: exact in text
		case 3:
			return fmt.Sprintf("s-%d", r.Intn(1000))
		case 4:
			n := r.Intn(4)
			arr := make([]any, n)
			for i := range arr {
				arr[i] = build(r, depth-1)
			}
			return arr
		default:
			n := r.Intn(4)
			st := map[string]any{}
			for i := 0; i < n; i++ {
				st[fmt.Sprintf("k%d", i)] = build(r, depth-1)
			}
			return st
		}
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		v := build(r, 4)
		got := roundTripValue(t, v)
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("trial %d: %#v -> %#v", trial, v, got)
		}
	}
}

// ---------------------------------------------------------------------------
// Reference model: the encoding/xml token walk the single-pass scanner
// replaced, kept unchanged. FuzzUnmarshal and the differential tests
// require both decoders to return equal values wherever both accept a
// document.

// refUnmarshalCall parses a method call document.
func refUnmarshalCall(data []byte) (method string, args []any, err error) {
	d := xml.NewDecoder(bytes.NewReader(data))
	if err := expectStart(d, "methodCall"); err != nil {
		return "", nil, err
	}
	for {
		tok, err := d.Token()
		if err == io.EOF {
			return method, args, nil
		}
		if err != nil {
			return "", nil, err
		}
		se, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch se.Name.Local {
		case "methodName":
			s, err := readCharData(d, "methodName")
			if err != nil {
				return "", nil, err
			}
			method = s
		case "value":
			v, err := parseValue(d)
			if err != nil {
				return "", nil, err
			}
			args = append(args, v)
		}
	}
}

// refUnmarshalResponse parses a method response; faults become *Fault errors.
func refUnmarshalResponse(data []byte) (any, error) {
	d := xml.NewDecoder(bytes.NewReader(data))
	if err := expectStart(d, "methodResponse"); err != nil {
		return nil, err
	}
	for {
		tok, err := d.Token()
		if err == io.EOF {
			return nil, fmt.Errorf("xmlrpc: response with no value")
		}
		if err != nil {
			return nil, err
		}
		se, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch se.Name.Local {
		case "fault":
			v, err := findAndParseValue(d)
			if err != nil {
				return nil, err
			}
			st, ok := v.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("xmlrpc: malformed fault")
			}
			f := &Fault{}
			if c, ok := st["faultCode"].(int64); ok {
				f.Code = c
			}
			if s, ok := st["faultString"].(string); ok {
				f.Message = s
			}
			return nil, f
		case "value":
			return parseValue(d)
		}
	}
}

func expectStart(d *xml.Decoder, name string) error {
	for {
		tok, err := d.Token()
		if err != nil {
			return fmt.Errorf("xmlrpc: expected <%s>: %w", name, err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			if se.Name.Local != name {
				return fmt.Errorf("xmlrpc: expected <%s>, got <%s>", name, se.Name.Local)
			}
			return nil
		}
	}
}

// readCharData consumes character data until the close tag of elem.
func readCharData(d *xml.Decoder, elem string) (string, error) {
	var sb strings.Builder
	for {
		tok, err := d.Token()
		if err != nil {
			return "", err
		}
		switch t := tok.(type) {
		case xml.CharData:
			sb.Write(t)
		case xml.EndElement:
			if t.Name.Local == elem {
				return sb.String(), nil
			}
		case xml.StartElement:
			return "", fmt.Errorf("xmlrpc: unexpected <%s> inside <%s>", t.Name.Local, elem)
		}
	}
}

// parseValue parses the contents of an already-opened <value> element
// through its closing tag.
func parseValue(d *xml.Decoder) (any, error) {
	var text strings.Builder
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.CharData:
			text.Write(t)
		case xml.EndElement:
			// </value> with no typed child: per spec, the text is a string.
			if t.Name.Local == "value" {
				return text.String(), nil
			}
		case xml.StartElement:
			v, err := parseTyped(d, t.Name.Local)
			if err != nil {
				return nil, err
			}
			// consume until </value>
			if err := skipToEnd(d, "value"); err != nil {
				return nil, err
			}
			return v, nil
		}
	}
}

func skipToEnd(d *xml.Decoder, elem string) error {
	depth := 0
	for {
		tok, err := d.Token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
		case xml.EndElement:
			if depth == 0 && t.Name.Local == elem {
				return nil
			}
			depth--
		}
	}
}

func parseTyped(d *xml.Decoder, typ string) (any, error) {
	switch typ {
	case "int", "i4", "i8":
		s, err := readCharData(d, typ)
		if err != nil {
			return nil, err
		}
		return strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	case "boolean":
		s, err := readCharData(d, typ)
		if err != nil {
			return nil, err
		}
		switch strings.TrimSpace(s) {
		case "1", "true":
			return true, nil
		case "0", "false":
			return false, nil
		}
		return nil, fmt.Errorf("xmlrpc: bad boolean %q", s)
	case "double":
		s, err := readCharData(d, typ)
		if err != nil {
			return nil, err
		}
		return strconv.ParseFloat(strings.TrimSpace(s), 64)
	case "string":
		return readCharData(d, typ)
	case "base64":
		s, err := readCharData(d, typ)
		if err != nil {
			return nil, err
		}
		return base64.StdEncoding.DecodeString(strings.Map(dropSpace, s))
	case "array":
		return parseArray(d)
	case "struct":
		return parseStruct(d)
	case "nil":
		if err := skipToEnd(d, "nil"); err != nil {
			return nil, err
		}
		return nil, nil
	}
	return nil, fmt.Errorf("xmlrpc: unknown value type <%s>", typ)
}

func dropSpace(r rune) rune {
	switch r {
	case ' ', '\t', '\n', '\r':
		return -1
	}
	return r
}

func parseArray(d *xml.Decoder) (any, error) {
	out := []any{}
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local == "value" {
				v, err := parseValue(d)
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			}
		case xml.EndElement:
			if t.Name.Local == "array" {
				return out, nil
			}
		}
	}
}

func parseStruct(d *xml.Decoder) (any, error) {
	out := map[string]any{}
	var name string
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "name":
				s, err := readCharData(d, "name")
				if err != nil {
					return nil, err
				}
				name = s
			case "value":
				v, err := parseValue(d)
				if err != nil {
					return nil, err
				}
				out[name] = v
			}
		case xml.EndElement:
			if t.Name.Local == "struct" {
				return out, nil
			}
		}
	}
}

// findAndParseValue scans forward to the next <value> element and
// parses it; used for the single value inside <fault>.
func findAndParseValue(d *xml.Decoder) (any, error) {
	for {
		tok, err := d.Token()
		if err == io.EOF {
			return nil, fmt.Errorf("xmlrpc: no value found")
		}
		if err != nil {
			return nil, err
		}
		if se, ok := tok.(xml.StartElement); ok && se.Name.Local == "value" {
			return parseValue(d)
		}
	}
}

// ---------------------------------------------------------------------------
// Scanner against the reference model

// psoAssignment is the shape of a PSO particle-move assignment: the
// struct get_task answers with on the iterative workload.
func psoAssignment() map[string]any {
	params := make([]byte, 96)
	for i := range params {
		params[i] = byte(i * 7)
	}
	return map[string]any{
		"status":       "task",
		"task_id":      int64(1234),
		"job_id":       int64(3),
		"attempt":      int64(1),
		"dataset":      int64(41),
		"kind":         int64(0),
		"func":         "pso_move",
		"combine":      "",
		"splits":       int64(7),
		"partition":    "mod",
		"task_index":   int64(5),
		"input_urls":   []any{"mem:3/40/5/0", "http://127.0.0.1:40001/data/j3_d40_t5_s0"},
		"input_format": "",
		"params":       params,
		"narrow":       true,
		"resident":     true,
		"input_ds":     int64(40),
		"trace_id":     int64(88172645463325252),
		"deletes":      []any{"j3_d38_t5_s0", "j3_d38_t6_s0"},
	}
}

// fusedAssignment is a PSO merge reduce carrying the convergence
// check's map as a fused member.
func fusedAssignment() map[string]any {
	a := psoAssignment()
	a["kind"], a["func"], a["dataset"] = int64(1), "pso_merge", int64(42)
	a["then"] = []any{map[string]any{
		"dataset": int64(43), "kind": int64(0), "func": "pso_best", "combine": "", "splits": int64(1),
		"partition": "constant", "resident": true, "input_ds": int64(42), "trace_id": int64(88172645463325253),
	}}
	return a
}

func unmarshalSeeds(t testing.TB) [][]byte {
	must := func(b []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	outputs := []any{map[string]any{"name": "j3_d41_t5_s0", "url": "http://127.0.0.1:40001/data/j3_d41_t5_s0", "records": int64(5), "bytes": int64(2048)}}
	timing := map[string]any{"wall_ns": int64(812345), "in_bytes": int64(4096)}
	seeds := [][]byte{
		must(MarshalResponse(psoAssignment())),
		must(MarshalCall("task_done", []any{"slave-1", int64(3), int64(1234), outputs, timing})),
		must(MarshalCall("get_task", []any{"slave-1", []any{map[string]any{"done": true, "job": int64(3), "task_id": int64(1234), "outputs": outputs, "timing": timing}}})),
		// A fused narrow reduce: its members ride in "then", in the
		// assignment and in the report.
		must(MarshalResponse(fusedAssignment())),
		must(MarshalCall("get_task", []any{"slave-1", []any{map[string]any{"done": true, "job": int64(3), "task_id": int64(1234), "outputs": outputs, "timing": timing,
			"then": []any{map[string]any{"outputs": outputs, "timing": timing}}}}})),
		must(MarshalFault(&Fault{Code: 100, Message: "master: unknown slave slave-1 <declared dead?> & gone"})),
		must(MarshalResponse(map[string]any{"s": "line1\nline2\r\nline3\ttab \"quoted\" 'apos'", "f": 2.5, "n": []any{}})),
		[]byte(`<?xml version="1.0"?><methodResponse><params><param><value><string><![CDATA[<raw> & ]] stuff]]></string></value></param></params></methodResponse>`),
		[]byte("<?xml version=\"1.0\"?>\r\n<!-- leading comment --><methodCall><methodName>ping</methodName><params><param><value><!-- c -->text<!-- d -->more</value></param></params></methodCall>"),
		[]byte(`<methodResponse><params><param><value><string>&#60;&#x3e;&#169;&#x1F600;&amp;&lt;&gt;&quot;&apos;</string></value></param></params></methodResponse>`),
		[]byte(`<methodResponse><params><param><value><array><data><value/><value><nil/></value><value><i8> 42 </i8></value><value><base64>aGVs
bG8=</base64></value></data></array></value></param></params></methodResponse>`),
		[]byte(`<x:methodCall xmlns:x="urn:x"><x:methodName a="1" b='2'>m</x:methodName><params><param><x:value><x:int>7</x:int></x:value></param></params></x:methodCall>`),
		[]byte(`<methodResponse><fault><value><struct><member><name>faultCode</name><value><int>4</int></value></member><member><name>faultString</name><value>bare</value></member></struct></value></fault></methodResponse>`),
	}
	return seeds
}

// sameValue is reflect.DeepEqual with NaN equal to itself.
func sameValue(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && (x == y && math.Signbit(x) == math.Signbit(y) || math.IsNaN(x) && math.IsNaN(y))
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) || (x == nil) != (y == nil) {
			return false
		}
		for i := range x {
			if !sameValue(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			w, ok := y[k]
			if !ok || !sameValue(v, w) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}

// accepted reports whether a response decode produced a value or a
// fault (both are successful decodings of the document).
func accepted(err error) bool {
	var f *Fault
	return err == nil || errors.As(err, &f)
}

// compareDecoders runs both decoders over data; it fails the test only
// where both accept and disagree, and reports whether both accepted.
func compareDecoders(t testing.TB, data []byte) (callBoth, respBoth bool) {
	t.Helper()
	m1, a1, e1 := UnmarshalCall(data)
	m2, a2, e2 := refUnmarshalCall(data)
	if e1 == nil && e2 == nil {
		callBoth = true
		if m1 != m2 || !sameValue(any(a1), any(a2)) {
			t.Fatalf("call decoders disagree on %q:\nscanner   %q %#v\nreference %q %#v", data, m1, a1, m2, a2)
		}
	}
	v1, e1 := UnmarshalResponse(data)
	v2, e2 := refUnmarshalResponse(data)
	if accepted(e1) && accepted(e2) {
		respBoth = true
		var f1, f2 *Fault
		errors.As(e1, &f1)
		errors.As(e2, &f2)
		if (f1 == nil) != (f2 == nil) || f1 != nil && *f1 != *f2 || !sameValue(v1, v2) {
			t.Fatalf("response decoders disagree on %q:\nscanner   %#v %v\nreference %#v %v", data, v1, e1, v2, e2)
		}
	}
	return callBoth, respBoth
}

func TestScannerMatchesReferenceOnSeeds(t *testing.T) {
	for i, s := range unmarshalSeeds(t) {
		call, resp := compareDecoders(t, s)
		if !call && !resp {
			t.Errorf("seed %d accepted by neither decoder in both roles: %q", i, s)
		}
	}
}

func TestScannerEdgeCases(t *testing.T) {
	resp := func(inner string) string {
		return "<methodResponse><params><param><value>" + inner + "</value></param></params></methodResponse>"
	}
	cases := []struct {
		doc  string
		want any
	}{
		{resp("<string>a\r\nb\rc</string>"), "a\nb\nc"},
		{resp("<string>a&#13;&#10;b</string>"), "a\r\nb"},
		{resp("  <int> -17 </int>  "), int64(-17)},
		{resp("<i4>+8</i4>"), int64(8)},
		{resp("<int>9223372036854775807</int>"), int64(math.MaxInt64)},
		{resp("<double>-1.5e3</double>"), -1500.0},
		{resp("<boolean> true </boolean>"), true},
		{resp("<base64> aGk= </base64>"), []byte("hi")},
		{resp("<base64></base64>"), []byte{}},
		{resp("<nil/>"), nil},
		{resp(""), ""},
		{resp("<string/>"), ""},
		{resp("<![CDATA[x]]><![CDATA[y]]>"), "xy"},
		{resp("<string>a<!-- skip -->b<?pi stuff?>c</string>"), "abc"},
		{resp("<p:struct xmlns:p='urn:p'><p:member><p:name>k</p:name><p:value><int>1</int></p:value></p:member></p:struct>"), map[string]any{"k": int64(1)}},
		{resp("<array><data><value>a</value><value><string>b</string></value></data></array>"), []any{"a", "b"}},
	}
	for _, tc := range cases {
		got, err := UnmarshalResponse([]byte(tc.doc))
		if err != nil {
			t.Errorf("%q: %v", tc.doc, err)
			continue
		}
		if !sameValue(got, tc.want) {
			t.Errorf("%q: got %#v, want %#v", tc.doc, got, tc.want)
		}
		compareDecoders(t, []byte(tc.doc))
	}
}

func TestScannerRejectsMalformed(t *testing.T) {
	for _, doc := range []string{
		"",
		"not xml",
		"<methodResponse>",
		"<methodResponse><params><param><value><string>x</int></value>",
		"<methodResponse><params><param><value><string>&bogus;</string></value></param></params></methodResponse>",
		"<methodResponse><params><param><value><string>&#0;</string></value></param></params></methodResponse>",
		"<methodResponse><params><param><value><string>\x01</string></value></param></params></methodResponse>",
		"<methodResponse><params><param><value><string>\xff</string></value></param></params></methodResponse>",
		"<methodResponse><params><param><value><string>a]]>b</string></value></param></params></methodResponse>",
		"<methodResponse><params><param><value><int>1x</int></value></param></params></methodResponse>",
		"<methodResponse><params><param><value><unknown/></value></param></params></methodResponse>",
		"<!DOCTYPE x><methodResponse/>",
		"<methodResponse a=1><params/></methodResponse>",
		"<a:b:c/>",
		"<methodCall><methodName>m<x/></methodName></methodCall>",
		"<methodCall><methodName>m</methodName>",
	} {
		if _, err := UnmarshalResponse([]byte(doc)); err == nil {
			t.Errorf("UnmarshalResponse accepted %q", doc)
		}
		if _, _, err := UnmarshalCall([]byte(doc)); err == nil {
			t.Errorf("UnmarshalCall accepted %q", doc)
		}
	}
}

func TestScannerBoundsNesting(t *testing.T) {
	deep := strings.Repeat("<value><array><data>", maxDepth) + strings.Repeat("</data></array></value>", maxDepth)
	doc := "<methodResponse><params><param>" + deep + "</param></params></methodResponse>"
	if _, err := UnmarshalResponse([]byte(doc)); err == nil || !strings.Contains(err.Error(), "nested too deeply") {
		t.Errorf("deeply nested document: %v, want a nesting error", err)
	}
	shallow := "<methodResponse><params><param>" + strings.Repeat("<value><array><data>", 50) +
		strings.Repeat("</data></array></value>", 50) + "</param></params></methodResponse>"
	if _, err := UnmarshalResponse([]byte(shallow)); err != nil {
		t.Errorf("50-deep arrays: %v", err)
	}
}

// FuzzUnmarshal runs the scanner against the encoding/xml reference:
// it must never panic, and where both decoders accept an input they
// must return equal values.
func FuzzUnmarshal(f *testing.F) {
	for _, s := range unmarshalSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		compareDecoders(t, data)
	})
}

func BenchmarkUnmarshalResponse(b *testing.B) {
	data, err := MarshalResponse(psoAssignment())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalResponse(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReferenceUnmarshalResponse(b *testing.B) {
	data, err := MarshalResponse(psoAssignment())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := refUnmarshalResponse(data); err != nil {
			b.Fatal(err)
		}
	}
}
