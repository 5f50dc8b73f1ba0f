// Package xmlrpc implements the XML-RPC protocol over HTTP. The Mrs
// paper chose XML-RPC for master/slave communication *because it ships
// with the Python standard library* even though faster protocols exist
// (§IV-B); we reproduce that choice on top of net/http to preserve the
// measured control-plane characteristics, so any XML-RPC client or
// server interoperates.
//
// Documents are written directly into a byte buffer and read back by a
// single-pass byte scanner (decode.go) that yields the same values the
// encoding/xml token walk it replaced did. That walk lives on in
// xmlrpc_test.go as the reference model: FuzzUnmarshal runs both
// decoders over the same bytes and requires equal results wherever
// both accept the input.
//
// Supported value types and their Go mappings:
//
//	<int>/<i4>      int64
//	<boolean>       bool
//	<double>        float64
//	<string>        string
//	<base64>        []byte
//	<array>         []any
//	<struct>        map[string]any
//
// Faults are returned as *Fault errors.
package xmlrpc

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Fault is an XML-RPC fault response.
type Fault struct {
	Code    int64
	Message string
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("xmlrpc: fault %d: %s", f.Code, f.Message)
}

// ---------------------------------------------------------------------------
// Marshalling

// bufs holds the buffers documents are written into, so that a
// document lands in a buffer already grown by earlier ones instead of
// doubling its way up from empty.
var bufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf caps the buffers bufs keeps: one grown past it by a rare
// huge document is dropped rather than held.
const maxPooledBuf = 1 << 20

func getBuf() *bytes.Buffer {
	b := bufs.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		bufs.Put(b)
	}
}

// MarshalCall encodes a method call document.
func MarshalCall(method string, args []any) ([]byte, error) {
	b := getBuf()
	defer putBuf(b)
	if err := writeCall(b, method, args); err != nil {
		return nil, err
	}
	return bytes.Clone(b.Bytes()), nil
}

// MarshalResponse encodes a successful method response with one result.
func MarshalResponse(result any) ([]byte, error) {
	b := getBuf()
	defer putBuf(b)
	if err := writeResponse(b, result); err != nil {
		return nil, err
	}
	return bytes.Clone(b.Bytes()), nil
}

// MarshalFault encodes a fault response.
func MarshalFault(f *Fault) ([]byte, error) {
	b := getBuf()
	defer putBuf(b)
	if err := writeFault(b, f); err != nil {
		return nil, err
	}
	return bytes.Clone(b.Bytes()), nil
}

func writeCall(b *bytes.Buffer, method string, args []any) error {
	b.WriteString(xml.Header)
	b.WriteString("<methodCall><methodName>")
	if err := escapeText(b, method); err != nil {
		return err
	}
	b.WriteString("</methodName><params>")
	for _, a := range args {
		b.WriteString("<param>")
		if err := writeValue(b, a); err != nil {
			return err
		}
		b.WriteString("</param>")
	}
	b.WriteString("</params></methodCall>")
	return nil
}

func writeResponse(b *bytes.Buffer, result any) error {
	b.WriteString(xml.Header)
	b.WriteString("<methodResponse><params><param>")
	if err := writeValue(b, result); err != nil {
		return err
	}
	b.WriteString("</param></params></methodResponse>")
	return nil
}

func writeFault(b *bytes.Buffer, f *Fault) error {
	b.WriteString(xml.Header)
	b.WriteString("<methodResponse><fault>")
	err := writeValue(b, map[string]any{
		"faultCode":   f.Code,
		"faultString": f.Message,
	})
	if err != nil {
		return err
	}
	b.WriteString("</fault></methodResponse>")
	return nil
}

// escapeText writes s as xml.EscapeText does. Printable ASCII other
// than the five markup characters is written as it is, which is every
// name, id and URL the control plane sends, without the []byte copy
// EscapeText needs.
func escapeText(b *bytes.Buffer, s string) error {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7E || c == '<' || c == '>' || c == '&' || c == '\'' || c == '"' {
			return xml.EscapeText(b, []byte(s))
		}
	}
	b.WriteString(s)
	return nil
}

func writeValue(b *bytes.Buffer, v any) error {
	b.WriteString("<value>")
	switch x := v.(type) {
	case nil:
		// XML-RPC has no null in the base spec; encode as empty string.
		b.WriteString("<string></string>")
	case int:
		b.WriteString("<int>")
		b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(x), 10))
		b.WriteString("</int>")
	case int64:
		b.WriteString("<int>")
		b.Write(strconv.AppendInt(b.AvailableBuffer(), x, 10))
		b.WriteString("</int>")
	case bool:
		if x {
			b.WriteString("<boolean>1</boolean>")
		} else {
			b.WriteString("<boolean>0</boolean>")
		}
	case float64:
		b.WriteString("<double>")
		b.Write(strconv.AppendFloat(b.AvailableBuffer(), x, 'g', -1, 64))
		b.WriteString("</double>")
	case string:
		b.WriteString("<string>")
		if err := escapeText(b, x); err != nil {
			return err
		}
		b.WriteString("</string>")
	case []byte:
		b.WriteString("<base64>")
		b.Write(base64.StdEncoding.AppendEncode(b.AvailableBuffer(), x))
		b.WriteString("</base64>")
	case []any:
		b.WriteString("<array><data>")
		for _, e := range x {
			if err := writeValue(b, e); err != nil {
				return err
			}
		}
		b.WriteString("</data></array>")
	case []string:
		b.WriteString("<array><data>")
		for _, e := range x {
			if err := writeValue(b, e); err != nil {
				return err
			}
		}
		b.WriteString("</data></array>")
	case map[string]any:
		b.WriteString("<struct>")
		for _, k := range sortedKeys(x) {
			b.WriteString("<member><name>")
			if err := escapeText(b, k); err != nil {
				return err
			}
			b.WriteString("</name>")
			if err := writeValue(b, x[k]); err != nil {
				return err
			}
			b.WriteString("</member>")
		}
		b.WriteString("</struct>")
	default:
		return fmt.Errorf("xmlrpc: unsupported type %T", v)
	}
	b.WriteString("</value>")
	return nil
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// insertion sort; structs are small
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// ---------------------------------------------------------------------------
// Unmarshalling

// UnmarshalCall parses a method call document.
func UnmarshalCall(data []byte) (method string, args []any, err error) {
	d := decoder{data: data}
	if err := d.expectStart("methodCall"); err != nil {
		return "", nil, err
	}
	for {
		err := d.next()
		if err == io.EOF {
			return method, args, nil
		}
		if err != nil {
			return "", nil, err
		}
		if d.kind != tokStart {
			continue
		}
		switch string(d.name) {
		case "methodName":
			s, err := d.charDataOf("methodName")
			if err != nil {
				return "", nil, err
			}
			method = string(s)
		case "value":
			v, err := d.parseValue()
			if err != nil {
				return "", nil, err
			}
			args = append(args, v)
		}
	}
}

// UnmarshalResponse parses a method response; faults become *Fault errors.
func UnmarshalResponse(data []byte) (any, error) {
	d := decoder{data: data}
	if err := d.expectStart("methodResponse"); err != nil {
		return nil, err
	}
	for {
		err := d.next()
		if err == io.EOF {
			return nil, fmt.Errorf("xmlrpc: response with no value")
		}
		if err != nil {
			return nil, err
		}
		if d.kind != tokStart {
			continue
		}
		switch string(d.name) {
		case "fault":
			v, err := d.findAndParseValue()
			if err != nil {
				return nil, err
			}
			return nil, faultFrom(v)
		case "value":
			return d.parseValue()
		}
	}
}

// faultFrom converts a decoded <fault> value to the error it carries.
func faultFrom(v any) error {
	st, ok := v.(map[string]any)
	if !ok {
		return fmt.Errorf("xmlrpc: malformed fault")
	}
	f := &Fault{}
	if c, ok := st["faultCode"].(int64); ok {
		f.Code = c
	}
	if s, ok := st["faultString"].(string); ok {
		f.Message = s
	}
	return f
}
