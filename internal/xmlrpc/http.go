package xmlrpc

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// RPCPath is the conventional endpoint path.
const RPCPath = "/RPC2"

// Handler is a registered server method.
type Handler func(args []any) (any, error)

// Server dispatches XML-RPC calls to registered handlers. It
// implements http.Handler and is mounted at RPCPath by convention.
type Server struct {
	mu      sync.RWMutex
	methods map[string]Handler
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{methods: map[string]Handler{}}
}

// Register adds a method. Re-registering a name replaces the handler.
func (s *Server) Register(name string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.methods[name] = h
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "xmlrpc requires POST", http.StatusMethodNotAllowed)
		return
	}
	body, err := readBody(r.Body, r.ContentLength)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	method, args, err := UnmarshalCall(body)
	if err != nil {
		s.writeFault(w, &Fault{Code: -32700, Message: "parse error: " + err.Error()})
		return
	}
	s.mu.RLock()
	h, ok := s.methods[method]
	s.mu.RUnlock()
	if !ok {
		s.writeFault(w, &Fault{Code: -32601, Message: fmt.Sprintf("method %q not found", method)})
		return
	}
	result, err := h(args)
	if err != nil {
		if f, isFault := err.(*Fault); isFault {
			s.writeFault(w, f)
		} else {
			s.writeFault(w, &Fault{Code: 1, Message: err.Error()})
		}
		return
	}
	// The response is written from a pooled buffer: the ResponseWriter
	// copies what it is given, so the buffer is free once it returns.
	b := getBuf()
	defer putBuf(b)
	if err := writeResponse(b, result); err != nil {
		s.writeFault(w, &Fault{Code: 2, Message: "marshal error: " + err.Error()})
		return
	}
	writeXML(w, b.Bytes())
}

func (s *Server) writeFault(w http.ResponseWriter, f *Fault) {
	b := getBuf()
	defer putBuf(b)
	if err := writeFault(b, f); err != nil {
		http.Error(w, f.Message, http.StatusInternalServerError)
		return
	}
	writeXML(w, b.Bytes())
}

// writeXML sends an XML-RPC response body with its Content-Length, so
// the client can read it in one exact-size buffer.
func writeXML(w http.ResponseWriter, data []byte) {
	w.Header().Set("Content-Type", "text/xml")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// maxBody caps the XML-RPC body either side reads.
const maxBody = 64 << 20

// readBody reads an XML-RPC body in one buffer of its declared length,
// failing with io.ErrUnexpectedEOF if it ends short. A body of unknown
// length, or one declared over maxBody, is read as far as maxBody.
func readBody(r io.Reader, length int64) ([]byte, error) {
	if length < 0 || length > maxBody {
		return io.ReadAll(io.LimitReader(r, maxBody))
	}
	data := make([]byte, length)
	if _, err := io.ReadFull(r, data); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return data, nil
}

// Intercept wraps an outgoing call. call performs the real round trip;
// an interceptor may refuse it, delay it, invoke it more than once
// (duplicate delivery), or discard its response — the mechanism behind
// internal/fault's chaos injection, also usable for tracing.
type Intercept func(method string, call func() (any, error)) (any, error)

// Client calls a remote XML-RPC endpoint.
type Client struct {
	// URL is the full endpoint, e.g. "http://host:1234/RPC2".
	URL string
	// HTTPClient may be replaced for custom timeouts; the default has
	// a generous timeout sized for long-poll task requests.
	HTTPClient *http.Client
	// Intercept, when non-nil, wraps every Call.
	Intercept Intercept
}

// DefaultTimeout bounds a single RPC round trip.
const DefaultTimeout = 60 * time.Second

// NewClient returns a client for the endpoint URL.
func NewClient(url string) *Client {
	return &Client{URL: url, HTTPClient: &http.Client{Timeout: DefaultTimeout}}
}

// CloseIdle closes the client's pooled keep-alive connections. A caller
// that is done with the endpoint should call this: a pooled connection
// that never carries another request (including one parked by a dial
// race between concurrent calls) otherwise counts against the server's
// graceful Shutdown until net/http's new-connection grace period.
func (c *Client) CloseIdle() {
	if c.HTTPClient != nil {
		c.HTTPClient.CloseIdleConnections()
	}
}

// Call invokes a remote method. Server faults come back as *Fault.
func (c *Client) Call(method string, args ...any) (any, error) {
	if c.Intercept != nil {
		return c.Intercept(method, func() (any, error) { return c.call(method, args) })
	}
	return c.call(method, args)
}

func (c *Client) call(method string, args []any) (any, error) {
	// The body is an exact-size copy out of the pooled buffer, not the
	// buffer itself: the transport may still read a request body after
	// the response has come back.
	body, err := MarshalCall(method, args)
	if err != nil {
		return nil, err
	}
	httpClient := c.HTTPClient
	if httpClient == nil {
		httpClient = &http.Client{Timeout: DefaultTimeout}
	}
	resp, err := httpClient.Post(c.URL, "text/xml", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("xmlrpc: %s: %w", method, err)
	}
	defer resp.Body.Close()
	data, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("xmlrpc: %s: HTTP %s", method, resp.Status)
	}
	return UnmarshalResponse(data)
}
