package objstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"arkfs/internal/obs"
	"arkfs/internal/qos"
	"arkfs/internal/types"
)

// TenantHeader names the HTTP header carrying the caller's tenant on gateway
// requests; the gateway's admission controller charges the request to it.
const TenantHeader = "X-Ark-Tenant"

// retryAfterNSHeader carries the exact retry-after hint in nanoseconds on 429
// responses (the standard Retry-After header only has second granularity).
const retryAfterNSHeader = "X-Ark-Retry-After-Ns"

// Gateway exposes any Store over a minimal S3-flavored REST API:
//
//	PUT    /o/<key>            store object
//	GET    /o/<key>            fetch object
//	HEAD   /o/<key>            object size (Content-Length)
//	DELETE /o/<key>            delete object
//	GET    /list?prefix=<p>    JSON array of keys
//
// It exists to demonstrate the PRT module's claim that ArkFS runs on any
// object store reachable through REST verbs: cmd/objstored serves this and
// HTTPStore consumes it.
type Gateway struct {
	store Store
	mux   *http.ServeMux

	// Admission control; nil admits everything. now is injectable for tests
	// and defaults to time.Now.
	qos *qos.Limiter
	now func() time.Time

	// Per-verb tallies; nil (no registry attached) counts nothing.
	cPut, cGet, cHead, cDelete, cList, cErrors, cShed *obs.Counter
}

// NewGateway wraps store in a REST handler.
func NewGateway(store Store) *Gateway {
	g := &Gateway{store: store, mux: http.NewServeMux(), now: time.Now}
	g.mux.HandleFunc("/o/", g.object)
	g.mux.HandleFunc("/list", g.list)
	return g
}

// SetQoS attaches per-tenant token-bucket admission control: every request is
// charged to its X-Ark-Tenant header (requests without one pool under
// "anon"), and refusals answer 429 with Retry-After. Nil detaches.
func (g *Gateway) SetQoS(l *qos.Limiter) { g.qos = l }

// admit charges one request to the caller's tenant bucket; on refusal it
// writes the 429 response and returns false.
func (g *Gateway) admit(w http.ResponseWriter, r *http.Request) bool {
	if g.qos == nil {
		return true
	}
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = "anon"
	}
	ok, after := g.qos.Admit(tenant, g.now())
	if ok {
		return true
	}
	g.cShed.Inc()
	w.Header().Set("Retry-After",
		strconv.FormatInt(int64(math.Ceil(after.Seconds())), 10))
	w.Header().Set(retryAfterNSHeader, strconv.FormatInt(after.Nanoseconds(), 10))
	http.Error(w, "tenant rate limit exceeded", http.StatusTooManyRequests)
	return false
}

// SetObs attaches a metrics registry: the gateway counts each REST verb
// (gateway.put/get/head/delete/list) and failed requests (gateway.errors).
func (g *Gateway) SetObs(reg *obs.Registry) {
	g.cPut = reg.Counter("gateway.put")
	g.cGet = reg.Counter("gateway.get")
	g.cHead = reg.Counter("gateway.head")
	g.cDelete = reg.Counter("gateway.delete")
	g.cList = reg.Counter("gateway.list")
	g.cErrors = reg.Counter("gateway.errors")
	g.cShed = reg.Counter("qos.shed.gateway")
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

func (g *Gateway) object(w http.ResponseWriter, r *http.Request) {
	// Use the escaped form so %2F inside a key is not conflated with a path
	// separator, then unescape exactly once.
	key, err := url.PathUnescape(strings.TrimPrefix(r.URL.EscapedPath(), "/o/"))
	if err != nil || key == "" {
		http.Error(w, "bad key", http.StatusBadRequest)
		return
	}
	if !g.admit(w, r) {
		return
	}
	switch r.Method {
	case http.MethodPut:
		g.cPut.Inc()
		data, err := io.ReadAll(r.Body)
		if err != nil {
			g.cErrors.Inc()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := g.store.Put(key, data); err != nil {
			g.cErrors.Inc()
			httpError(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
	case http.MethodGet:
		g.cGet.Inc()
		data, err := g.store.Get(key)
		if err != nil {
			g.cErrors.Inc()
			httpError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(data)
	case http.MethodHead:
		g.cHead.Inc()
		size, err := g.store.Head(key)
		if err != nil {
			g.cErrors.Inc()
			httpError(w, err)
			return
		}
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
		w.WriteHeader(http.StatusOK)
	case http.MethodDelete:
		g.cDelete.Inc()
		if err := g.store.Delete(key); err != nil {
			g.cErrors.Inc()
			httpError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (g *Gateway) list(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !g.admit(w, r) {
		return
	}
	g.cList.Inc()
	keys, err := g.store.List(r.URL.Query().Get("prefix"))
	if err != nil {
		g.cErrors.Inc()
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(keys)
}

func httpError(w http.ResponseWriter, err error) {
	if errors.Is(err, types.ErrNotExist) {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

// HTTPStore is a Store backed by a remote Gateway; it is the "S3-compatible
// backend registered through its REST API" path of the PRT module.
type HTTPStore struct {
	base   string // e.g. "http://127.0.0.1:9000"
	tenant string // stamped on every request's X-Ark-Tenant header when set
	client *http.Client
}

// NewHTTPStore targets the gateway at base URL.
func NewHTTPStore(base string) *HTTPStore {
	return &HTTPStore{base: strings.TrimRight(base, "/"), client: &http.Client{}}
}

// SetTenant stamps tenant on every subsequent request, so the gateway's
// per-tenant admission controller can attribute and rate-limit this client.
// The Store API is context-free, so the attribution is per-store, not per-op.
func (s *HTTPStore) SetTenant(tenant string) { s.tenant = tenant }

func (s *HTTPStore) objURL(key string) string {
	return s.base + "/o/" + url.PathEscape(key)
}

// roundTrip issues one request with the store's tenant header attached.
func (s *HTTPStore) roundTrip(method, rawURL string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, rawURL, body)
	if err != nil {
		return nil, err
	}
	if s.tenant != "" {
		req.Header.Set(TenantHeader, s.tenant)
	}
	return s.client.Do(req)
}

// Put implements Store.
func (s *HTTPStore) Put(key string, data []byte) error {
	resp, err := s.roundTrip(http.MethodPut, s.objURL(key), strings.NewReader(string(data)))
	if err != nil {
		return fmt.Errorf("httpstore put %q: %w", key, err)
	}
	defer resp.Body.Close()
	return statusErr("put", key, resp)
}

// Get implements Store.
func (s *HTTPStore) Get(key string) ([]byte, error) {
	resp, err := s.roundTrip(http.MethodGet, s.objURL(key), nil)
	if err != nil {
		return nil, fmt.Errorf("httpstore get %q: %w", key, err)
	}
	defer resp.Body.Close()
	if err := statusErr("get", key, resp); err != nil {
		return nil, err
	}
	return io.ReadAll(resp.Body)
}

// GetRange implements Store. The gateway has no ranged endpoint; the window
// is clipped client-side, which preserves semantics at the cost of wire
// bytes (acceptable for the live-demo path this store serves).
func (s *HTTPStore) GetRange(key string, off, n int64) ([]byte, error) {
	data, err := s.Get(key)
	if err != nil {
		return nil, err
	}
	return clipRange(data, off, n), nil
}

// Delete implements Store.
func (s *HTTPStore) Delete(key string) error {
	resp, err := s.roundTrip(http.MethodDelete, s.objURL(key), nil)
	if err != nil {
		return fmt.Errorf("httpstore delete %q: %w", key, err)
	}
	defer resp.Body.Close()
	return statusErr("delete", key, resp)
}

// Head implements Store.
func (s *HTTPStore) Head(key string) (int64, error) {
	resp, err := s.roundTrip(http.MethodHead, s.objURL(key), nil)
	if err != nil {
		return 0, fmt.Errorf("httpstore head %q: %w", key, err)
	}
	defer resp.Body.Close()
	if err := statusErr("head", key, resp); err != nil {
		return 0, err
	}
	return strconv.ParseInt(resp.Header.Get("Content-Length"), 10, 64)
}

// List implements Store.
func (s *HTTPStore) List(prefix string) ([]string, error) {
	resp, err := s.roundTrip(http.MethodGet, s.base+"/list?prefix="+url.QueryEscape(prefix), nil)
	if err != nil {
		return nil, fmt.Errorf("httpstore list %q: %w", prefix, err)
	}
	defer resp.Body.Close()
	if err := statusErr("list", prefix, resp); err != nil {
		return nil, err
	}
	var keys []string
	if err := json.NewDecoder(resp.Body).Decode(&keys); err != nil {
		return nil, fmt.Errorf("httpstore list decode: %w", err)
	}
	return keys, nil
}

func statusErr(op, key string, resp *http.Response) error {
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return fmt.Errorf("httpstore %s %q: %w", op, key, ErrNotExist)
	case resp.StatusCode == http.StatusTooManyRequests:
		// Typed pushback crosses the REST boundary: rebuild the retry-after
		// hint from the response headers (exact-nanosecond header first,
		// standard Retry-After seconds as fallback).
		after := time.Second
		if ns, err := strconv.ParseInt(resp.Header.Get(retryAfterNSHeader), 10, 64); err == nil && ns > 0 {
			after = time.Duration(ns)
		} else if sec, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64); err == nil && sec > 0 {
			after = time.Duration(sec) * time.Second
		}
		return fmt.Errorf("httpstore %s %q: %w", op, key,
			types.AgainAfter(after, "gateway"))
	case resp.StatusCode >= 400:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("httpstore %s %q: status %d: %s: %w",
			op, key, resp.StatusCode, strings.TrimSpace(string(body)), types.ErrIO)
	default:
		return nil
	}
}
