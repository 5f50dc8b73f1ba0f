package kvio

import (
	"bytes"
	"io"
	"testing"
)

// benchStream builds one record stream of n copies of a moderate pair.
func benchStream(n int) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	p := StrPair("some-moderate-key", "some-moderate-value-payload")
	for i := 0; i < n; i++ {
		if err := w.Write(p); err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	w.Release()
	return buf.Bytes()
}

func BenchmarkWriterWrite(b *testing.B) {
	p := StrPair("some-moderate-key", "some-moderate-value-payload")
	b.SetBytes(int64(len(p.Key) + len(p.Value)))
	b.ReportAllocs()
	w := NewWriter(io.Discard)
	defer w.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(p); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkReaderRead(b *testing.B) {
	data := benchStream(b.N)
	b.SetBytes(int64(len("some-moderate-key") + len("some-moderate-value-payload")))
	b.ReportAllocs()
	b.ResetTimer()
	r := NewReader(bytes.NewReader(data))
	defer r.Release()
	for i := 0; i < b.N; i++ {
		if _, err := r.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReaderReadShared(b *testing.B) {
	data := benchStream(b.N)
	b.SetBytes(int64(len("some-moderate-key") + len("some-moderate-value-payload")))
	b.ReportAllocs()
	b.ResetTimer()
	r := NewReader(bytes.NewReader(data))
	defer r.Release()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadShared(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewReaderPooled measures the per-stream setup cost — with
// pooled buffers this should not allocate the 64 KiB bufio buffer.
func BenchmarkNewReaderPooled(b *testing.B) {
	data := benchStream(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(bytes.NewReader(data))
		if _, err := r.Read(); err != nil {
			b.Fatal(err)
		}
		r.Release()
	}
}

// benchBlockStream builds one block-framed stream of n copies of a
// moderate pair.
func benchBlockStream(n int) []byte {
	var buf bytes.Buffer
	w := NewBlockWriter(&buf, 0)
	p := StrPair("some-moderate-key", "some-moderate-value-payload")
	for i := 0; i < n; i++ {
		if err := w.Write(p); err != nil {
			panic(err)
		}
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func BenchmarkBlockWriterWrite(b *testing.B) {
	p := StrPair("some-moderate-key", "some-moderate-value-payload")
	b.Run(identityName, func(b *testing.B) {
		b.SetBytes(int64(len(p.Key) + len(p.Value)))
		b.ReportAllocs()
		w := NewBlockWriter(io.Discard, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Write(p); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkBlockReaderReadShared(b *testing.B) {
	b.Run(identityName, func(b *testing.B) {
		data := benchBlockStream(b.N)
		b.SetBytes(int64(len("some-moderate-key") + len("some-moderate-value-payload")))
		b.ReportAllocs()
		b.ResetTimer()
		r := NewAnyReader(bytes.NewReader(data))
		defer r.Release()
		for i := 0; i < b.N; i++ {
			if _, err := r.ReadShared(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
