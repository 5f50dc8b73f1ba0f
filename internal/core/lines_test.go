package core

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"repro/internal/codec"
)

// scannerLines is the reference text split: bufio.ScanLines (which
// drops one '\r' before each '\n' and at the end) plus one more '\r'
// trimmed, with an encoded line number per line.
func scannerLines(t *testing.T, data []byte) (keys, lines []string) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	n := int64(0)
	for sc.Scan() {
		n++
		line := sc.Bytes()
		if k := len(line); k > 0 && line[k-1] == '\r' {
			line = line[:k-1]
		}
		keys = append(keys, string(codec.EncodeVarint(n)))
		lines = append(lines, string(line))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return keys, lines
}

// TestForEachLineMatchesScanner: splitting a text payload in place
// yields the same line numbers and lines as the Scanner it replaced.
func TestForEachLineMatchesScanner(t *testing.T) {
	long := strings.Repeat("x", 100<<10)
	for _, tc := range []struct{ name, text string }{
		{"empty", ""},
		{"one-line-no-newline", "alpha"},
		{"lf", "alpha\nbeta\n"},
		{"final-line-no-newline", "alpha\nbeta"},
		{"crlf", "alpha\r\nbeta\r\n"},
		{"cr-cr-lf", "alpha\r\r\nbeta\r\r\r\ngamma"},
		{"final-cr-cr", "alpha\nbeta\r\r"},
		{"lone-cr", "\r"},
		{"empty-lines", "\n\n\nalpha\n\n"},
		{"inner-cr", "al\rpha\n\rbeta\n"},
		{"line-over-64KiB", "a\n" + long + "\r\nb\n" + long},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantKeys, wantLines := scannerLines(t, []byte(tc.text))
			var keys, lines []string
			err := forEachLine([]byte(tc.text), func(key, value []byte) error {
				keys = append(keys, string(key))
				lines = append(lines, string(value))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(lines) != len(wantLines) {
				t.Fatalf("%d lines, want %d", len(lines), len(wantLines))
			}
			for i := range lines {
				if keys[i] != wantKeys[i] || lines[i] != wantLines[i] {
					t.Errorf("line %d: key %x value %.20q, want key %x value %.20q", i, keys[i], lines[i], wantKeys[i], wantLines[i])
				}
			}
		})
	}
}
