package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"

	"minegame/internal/obs"
	"minegame/internal/serve"
)

// clients is the closed-loop client count: one per core of the 2-core
// host the benchmark is sized for, and the cap on open connections.
const clients = 2

// daemon is an in-process serve.Server on a loopback listener plus the
// HTTP client that drives it.
type daemon struct {
	hs     *http.Server
	done   chan error // receives Serve's return once the listener closes
	base   string
	tr     *http.Transport
	client *http.Client
}

// startDaemon builds a server with the default configuration (ob nil
// keeps the daemon's own fresh observer, as cmd/minegamed does) and
// starts serving on an ephemeral loopback port.
func startDaemon(ob *obs.Observer) (*daemon, error) {
	s, err := serve.New(serve.Config{Observer: ob})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		hs:   &http.Server{Handler: s.Handler()},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		tr: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
	d.client = &http.Client{Transport: d.tr}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the server and waits for its serve loop to return.
func (d *daemon) close() {
	d.tr.CloseIdleConnections()
	_ = d.hs.Close() // the error repeats the listener's own close error; Serve's return below is what matters
	<-d.done
}

// post sends one request body and returns the status and the response
// body, read into buf (reset first). The returned slice aliases buf.
func (d *daemon) post(endpoint string, body []byte, buf *bytes.Buffer) (int, []byte, error) {
	resp, err := d.client.Post(d.base+"/v1/"+endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	buf.Reset()
	_, rerr := buf.ReadFrom(resp.Body)
	cerr := resp.Body.Close()
	if rerr != nil {
		return resp.StatusCode, nil, rerr
	}
	if cerr != nil {
		return resp.StatusCode, nil, cerr
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// envelope is the batch response wire shape.
type envelope struct {
	Items []struct {
		Result json.RawMessage `json:"result"`
		Error  string          `json:"error"`
	} `json:"items"`
}

// itemResults splits a 200 response into per-item results, failing on
// any item error or a count mismatch.
func itemResults(status int, body []byte, want int) ([]json.RawMessage, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %.200s", status, body)
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fmt.Errorf("decode envelope: %w", err)
	}
	if len(env.Items) != want {
		return nil, fmt.Errorf("%d items answered, %d sent", len(env.Items), want)
	}
	out := make([]json.RawMessage, want)
	for i, it := range env.Items {
		if it.Error != "" {
			return nil, errors.New("item error: " + it.Error)
		}
		if len(it.Result) == 0 {
			return nil, fmt.Errorf("item %d has no result", i)
		}
		out[i] = it.Result
	}
	return out, nil
}
