package xmlrpc

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// The decoder is one byte scanner over the whole body. A pull tokenizer
// (next) yields start tags, end tags and character data straight from
// the input slice; comments and processing instructions are skipped
// where they stand, and CDATA sections become character data. The
// recursive descent on top consumes tokens exactly the way the
// encoding/xml token walk it replaced did (xmlrpc_test.go keeps that
// walk as the reference model FuzzUnmarshal compares against), so every
// document both accept decodes to the same value. What the scanner
// saves is encoding/xml's per-token copying, name-space bookkeeping and
// interface boxing: names are compared in place, and character data
// without references or carriage returns is never copied until it
// becomes a string.

type tokKind uint8

const (
	tokStart tokKind = iota
	tokEnd
	tokText
)

type decoder struct {
	data []byte
	pos  int
	// stack holds the raw names of the open elements, for end-tag
	// matching; selfClose marks a <name/> whose end token is still due.
	stack     [][]byte
	selfClose bool

	// The current token: kind, local name (start and end tags) and
	// character data (text tokens; aliases data unless it needed
	// decoding).
	kind tokKind
	name []byte
	text []byte
}

var errEOFInElement = errors.New("xmlrpc: unexpected EOF inside an element")

// maxDepth bounds element nesting. The descent recurses once per
// nested value, so an unbounded body could otherwise exhaust the stack;
// real XML-RPC documents nest a few dozen levels at most.
const maxDepth = 1024

func (d *decoder) syntaxError(msg string) error {
	return fmt.Errorf("xmlrpc: %s at offset %d", msg, d.pos)
}

// next advances to the next token; io.EOF at the end of a document
// whose elements are all closed.
func (d *decoder) next() error {
	if d.selfClose {
		d.selfClose = false
		d.stack = d.stack[:len(d.stack)-1]
		d.kind = tokEnd
		return nil
	}
	for {
		if d.pos >= len(d.data) {
			if len(d.stack) > 0 {
				return errEOFInElement
			}
			return io.EOF
		}
		if d.data[d.pos] != '<' {
			return d.charData()
		}
		rest := d.data[d.pos+1:]
		switch {
		case bytes.HasPrefix(rest, []byte("!--")):
			end := bytes.Index(rest[3:], []byte("-->"))
			if end < 0 {
				return d.syntaxError("unterminated comment")
			}
			d.pos += 1 + 3 + end + 3
		case bytes.HasPrefix(rest, []byte("![CDATA[")):
			return d.cdata()
		case len(rest) > 0 && rest[0] == '!':
			return d.syntaxError("DTD directives are not supported")
		case len(rest) > 0 && rest[0] == '?':
			end := bytes.Index(rest[1:], []byte("?>"))
			if end < 0 {
				return d.syntaxError("unterminated processing instruction")
			}
			d.pos += 1 + 1 + end + 2
		case len(rest) > 0 && rest[0] == '/':
			return d.endTag()
		default:
			return d.startTag()
		}
	}
}

func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

// nameByte marks the bytes a name may contain: ASCII letters, digits,
// "_:.-", and every byte of a multi-byte UTF-8 sequence.
var nameByte = func() (t [256]bool) {
	for b := 0; b < 256; b++ {
		t[b] = 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9' ||
			b == '_' || b == ':' || b == '.' || b == '-' || b >= utf8.RuneSelf
	}
	return t
}()

// scanName reads an element or attribute name at d.pos.
func (d *decoder) scanName() ([]byte, error) {
	start := d.pos
	for d.pos < len(d.data) && nameByte[d.data[d.pos]] {
		d.pos++
	}
	if d.pos == start {
		return nil, d.syntaxError("expected a name")
	}
	return d.data[start:d.pos], nil
}

// localName strips a name-space prefix the way encoding/xml does: a
// name with one inner colon is prefix:local, more colons are invalid.
func localName(raw []byte) ([]byte, bool) {
	i := bytes.IndexByte(raw, ':')
	if i < 0 {
		return raw, true
	}
	if bytes.IndexByte(raw[i+1:], ':') >= 0 {
		return nil, false
	}
	if i == 0 || i == len(raw)-1 {
		return raw, true
	}
	return raw[i+1:], true
}

func (d *decoder) skipSpace() {
	for d.pos < len(d.data) && isSpace(d.data[d.pos]) {
		d.pos++
	}
}

func (d *decoder) startTag() error {
	d.pos++ // '<'
	raw, err := d.scanName()
	if err != nil {
		return err
	}
	local, ok := localName(raw)
	if !ok {
		return d.syntaxError("invalid element name")
	}
	if len(d.stack) >= maxDepth {
		return d.syntaxError("elements nested too deeply")
	}
	for {
		d.skipSpace()
		if d.pos >= len(d.data) {
			return errEOFInElement
		}
		switch d.data[d.pos] {
		case '>':
			d.pos++
			d.stack = append(d.stack, raw)
			d.kind, d.name = tokStart, local
			return nil
		case '/':
			if d.pos+1 >= len(d.data) || d.data[d.pos+1] != '>' {
				return d.syntaxError("expected /> to end an empty element")
			}
			d.pos += 2
			d.stack = append(d.stack, raw)
			d.kind, d.name = tokStart, local
			d.selfClose = true
			return nil
		}
		if err := d.skipAttr(); err != nil {
			return err
		}
	}
}

// skipAttr consumes one name="value" attribute. Attribute values are
// never read by XML-RPC, so only their quoting is checked.
func (d *decoder) skipAttr() error {
	if _, err := d.scanName(); err != nil {
		return err
	}
	d.skipSpace()
	if d.pos >= len(d.data) || d.data[d.pos] != '=' {
		return d.syntaxError("attribute without =")
	}
	d.pos++
	d.skipSpace()
	if d.pos >= len(d.data) || (d.data[d.pos] != '"' && d.data[d.pos] != '\'') {
		return d.syntaxError("unquoted attribute value")
	}
	quote := d.data[d.pos]
	d.pos++
	end := bytes.IndexByte(d.data[d.pos:], quote)
	if end < 0 {
		return errEOFInElement
	}
	if bytes.IndexByte(d.data[d.pos:d.pos+end], '<') >= 0 {
		return d.syntaxError("unescaped < in attribute value")
	}
	d.pos += end + 1
	return nil
}

func (d *decoder) endTag() error {
	d.pos += 2 // "</"
	raw, err := d.scanName()
	if err != nil {
		return err
	}
	local, ok := localName(raw)
	if !ok {
		return d.syntaxError("invalid element name")
	}
	d.skipSpace()
	if d.pos >= len(d.data) || d.data[d.pos] != '>' {
		return d.syntaxError("expected > after end-tag name")
	}
	d.pos++
	if len(d.stack) == 0 {
		return d.syntaxError("end tag </" + string(raw) + "> without a start tag")
	}
	if top := d.stack[len(d.stack)-1]; !bytes.Equal(top, raw) {
		return d.syntaxError("element <" + string(top) + "> closed by </" + string(raw) + ">")
	}
	d.stack = d.stack[:len(d.stack)-1]
	d.kind, d.name = tokEnd, local
	return nil
}

// charData reads the character data up to the next '<' (or the end).
// Text without references or carriage returns is returned in place.
func (d *decoder) charData() error {
	start := d.pos
	end := bytes.IndexByte(d.data[start:], '<')
	if end < 0 {
		end = len(d.data)
	} else {
		end += start
	}
	raw := d.data[start:end]
	d.pos = end
	if bytes.IndexByte(raw, '&') < 0 && bytes.IndexByte(raw, '\r') < 0 {
		if bytes.Contains(raw, []byte("]]>")) {
			return d.syntaxError("unescaped ]]> outside CDATA")
		}
		if err := checkChars(raw); err != nil {
			return d.syntaxError(err.Error())
		}
		d.kind, d.text = tokText, raw
		return nil
	}
	text, err := unescape(raw)
	if err != nil {
		return d.syntaxError(err.Error())
	}
	d.kind, d.text = tokText, text
	return nil
}

func (d *decoder) cdata() error {
	body := d.pos + len("<![CDATA[")
	end := bytes.Index(d.data[body:], []byte("]]>"))
	if end < 0 {
		return d.syntaxError("unterminated CDATA section")
	}
	raw := d.data[body : body+end]
	d.pos = body + end + 3
	text := raw
	if bytes.IndexByte(raw, '\r') >= 0 {
		text = normalizeCR(make([]byte, 0, len(raw)), raw)
	}
	if err := checkChars(text); err != nil {
		return d.syntaxError(err.Error())
	}
	d.kind, d.text = tokText, text
	return nil
}

// normalizeCR appends raw to dst with "\r\n" and lone "\r" as "\n".
func normalizeCR(dst, raw []byte) []byte {
	for i := 0; i < len(raw); i++ {
		b := raw[i]
		if b == '\r' {
			dst = append(dst, '\n')
			if i+1 < len(raw) && raw[i+1] == '\n' {
				i++
			}
			continue
		}
		dst = append(dst, b)
	}
	return dst
}

// unescape decodes entity and character references and normalizes
// line ends in a run of character data, with encoding/xml's strict
// rules: only the five predefined entities, decimal &#N; and lower-case
// hexadecimal &#xH; references, and no "]]>".
func unescape(raw []byte) ([]byte, error) {
	out := make([]byte, 0, len(raw))
	// b0, b1 are the two previous raw bytes, as in encoding/xml; a
	// reference resets them.
	var b0, b1 byte
	for i := 0; i < len(raw); i++ {
		b := raw[i]
		if b0 == ']' && b1 == ']' && b == '>' {
			return nil, errors.New("unescaped ]]> outside CDATA")
		}
		if b == '&' {
			semi := bytes.IndexByte(raw[i+1:], ';')
			if semi < 0 {
				return nil, errors.New("invalid character entity (no semicolon)")
			}
			ref := raw[i+1 : i+1+semi]
			r, ok := decodeRef(ref)
			if !ok {
				return nil, fmt.Errorf("invalid character entity &%s;", ref)
			}
			out = utf8.AppendRune(out, r)
			i += 1 + semi
			b0, b1 = 0, 0
			continue
		}
		switch {
		case b == '\r':
			out = append(out, '\n')
		case b1 == '\r' && b == '\n':
			// "\r\n": the '\r' already wrote the '\n'.
		default:
			out = append(out, b)
		}
		b0, b1 = b1, b
	}
	if err := checkChars(out); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeRef resolves the body of one &...; reference.
func decodeRef(ref []byte) (rune, bool) {
	switch string(ref) {
	case "lt":
		return '<', true
	case "gt":
		return '>', true
	case "amp":
		return '&', true
	case "apos":
		return '\'', true
	case "quot":
		return '"', true
	}
	if len(ref) < 2 || ref[0] != '#' {
		return 0, false
	}
	digits, base := ref[1:], 10
	if digits[0] == 'x' {
		digits, base = digits[1:], 16
	}
	if len(digits) == 0 {
		return 0, false
	}
	for _, c := range digits {
		if !('0' <= c && c <= '9' || base == 16 && ('a' <= c && c <= 'f' || 'A' <= c && c <= 'F')) {
			return 0, false
		}
	}
	n, err := strconv.ParseUint(string(digits), base, 64)
	if err != nil || n > unicode.MaxRune {
		return 0, false
	}
	// string(rune(n)) semantics: surrogates become U+FFFD.
	r := rune(n)
	if !utf8.ValidRune(r) {
		r = utf8.RuneError
	}
	return r, true
}

// checkChars rejects invalid UTF-8 and characters outside XML 1.0's
// Char production.
func checkChars(text []byte) error {
	for i := 0; i < len(text); {
		b := text[i]
		if b < utf8.RuneSelf {
			if b < 0x20 && b != '\t' && b != '\n' && b != '\r' {
				return fmt.Errorf("illegal character code %U", rune(b))
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(text[i:])
		if r == utf8.RuneError && size == 1 {
			return errors.New("invalid UTF-8")
		}
		if !(r >= 0x20 && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF) {
			return fmt.Errorf("illegal character code %U", r)
		}
		i += size
	}
	return nil
}

// ---------------------------------------------------------------------------
// Recursive descent over the token stream

func (d *decoder) expectStart(name string) error {
	for {
		err := d.next()
		if err != nil {
			return fmt.Errorf("xmlrpc: expected <%s>: %w", name, err)
		}
		if d.kind == tokStart {
			if string(d.name) != name {
				return fmt.Errorf("xmlrpc: expected <%s>, got <%s>", name, d.name)
			}
			return nil
		}
	}
}

// charDataOf consumes character data until the end tag of elem. The
// result aliases the input when the data arrived as one token.
func (d *decoder) charDataOf(elem string) ([]byte, error) {
	var acc []byte
	pieces := 0
	for {
		if err := d.next(); err != nil {
			return nil, err
		}
		switch d.kind {
		case tokText:
			acc = appendText(acc, pieces, d.text)
			pieces++
		case tokEnd:
			if string(d.name) == elem {
				return acc, nil
			}
		case tokStart:
			return nil, fmt.Errorf("xmlrpc: unexpected <%s> inside <%s>", d.name, elem)
		}
	}
}

// appendText joins a run of text tokens: the first is kept as given,
// later ones copy into a fresh buffer.
func appendText(acc []byte, pieces int, text []byte) []byte {
	switch pieces {
	case 0:
		return text
	case 1:
		joined := make([]byte, len(acc), len(acc)+len(text))
		copy(joined, acc)
		return append(joined, text...)
	}
	return append(acc, text...)
}

// parseValue parses the contents of an already-opened <value> element
// through its closing tag.
func (d *decoder) parseValue() (any, error) {
	var text []byte
	pieces := 0
	for {
		if err := d.next(); err != nil {
			return nil, err
		}
		switch d.kind {
		case tokText:
			text = appendText(text, pieces, d.text)
			pieces++
		case tokEnd:
			// </value> with no typed child: per spec, the text is a string.
			if string(d.name) == "value" {
				return string(text), nil
			}
		case tokStart:
			v, err := d.parseTyped()
			if err != nil {
				return nil, err
			}
			if err := d.skipToEnd("value"); err != nil {
				return nil, err
			}
			return v, nil
		}
	}
}

func (d *decoder) skipToEnd(elem string) error {
	depth := 0
	for {
		if err := d.next(); err != nil {
			return err
		}
		switch d.kind {
		case tokStart:
			depth++
		case tokEnd:
			if depth == 0 && string(d.name) == elem {
				return nil
			}
			depth--
		}
	}
}

// parseTyped parses the typed child whose start tag is the current
// token.
func (d *decoder) parseTyped() (any, error) {
	switch string(d.name) {
	case "int":
		return d.parseInt("int")
	case "i4":
		return d.parseInt("i4")
	case "i8":
		return d.parseInt("i8")
	case "boolean":
		s, err := d.charDataOf("boolean")
		if err != nil {
			return nil, err
		}
		switch string(bytes.TrimSpace(s)) {
		case "1", "true":
			return true, nil
		case "0", "false":
			return false, nil
		}
		return nil, fmt.Errorf("xmlrpc: bad boolean %q", s)
	case "double":
		s, err := d.charDataOf("double")
		if err != nil {
			return nil, err
		}
		return strconv.ParseFloat(string(bytes.TrimSpace(s)), 64)
	case "string":
		s, err := d.charDataOf("string")
		if err != nil {
			return nil, err
		}
		return string(s), nil
	case "base64":
		s, err := d.charDataOf("base64")
		if err != nil {
			return nil, err
		}
		return decodeBase64(s)
	case "array":
		return d.parseArray()
	case "struct":
		return d.parseStruct()
	case "nil":
		if err := d.skipToEnd("nil"); err != nil {
			return nil, err
		}
		return nil, nil
	}
	return nil, fmt.Errorf("xmlrpc: unknown value type <%s>", d.name)
}

func (d *decoder) parseInt(elem string) (any, error) {
	s, err := d.charDataOf(elem)
	if err != nil {
		return nil, err
	}
	return strconv.ParseInt(string(bytes.TrimSpace(s)), 10, 64)
}

// decodeBase64 decodes after dropping the whitespace XML-RPC writers
// wrap base64 with.
func decodeBase64(s []byte) ([]byte, error) {
	if bytes.IndexAny(s, " \t\n\r") >= 0 {
		compact := make([]byte, 0, len(s))
		for _, c := range s {
			if !isSpace(c) {
				compact = append(compact, c)
			}
		}
		s = compact
	}
	out := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(out, s)
	return out[:n], err
}

func (d *decoder) parseArray() (any, error) {
	out := []any{}
	for {
		if err := d.next(); err != nil {
			return nil, err
		}
		switch d.kind {
		case tokStart:
			if string(d.name) == "value" {
				v, err := d.parseValue()
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			}
		case tokEnd:
			if string(d.name) == "array" {
				return out, nil
			}
		}
	}
}

func (d *decoder) parseStruct() (any, error) {
	out := map[string]any{}
	var name string
	for {
		if err := d.next(); err != nil {
			return nil, err
		}
		switch d.kind {
		case tokStart:
			switch string(d.name) {
			case "name":
				s, err := d.charDataOf("name")
				if err != nil {
					return nil, err
				}
				name = string(s)
			case "value":
				v, err := d.parseValue()
				if err != nil {
					return nil, err
				}
				out[name] = v
			}
		case tokEnd:
			if string(d.name) == "struct" {
				return out, nil
			}
		}
	}
}

// findAndParseValue scans forward to the next <value> element and
// parses it; used for the single value inside <fault>.
func (d *decoder) findAndParseValue() (any, error) {
	for {
		err := d.next()
		if err == io.EOF {
			return nil, fmt.Errorf("xmlrpc: no value found")
		}
		if err != nil {
			return nil, err
		}
		if d.kind == tokStart && string(d.name) == "value" {
			return d.parseValue()
		}
	}
}
