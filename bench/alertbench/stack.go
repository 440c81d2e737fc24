package main

import (
	"fmt"
	"net"
	"net/http"
	"sync"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/client"
	"github.com/alert-project/alert/internal/netserve"
)

// stack is the whole program under test in one process: alert.Server
// behind the netserve static gate, served over HTTP and binwire on
// loopback TCP, reached through client.Client. Client and server share the
// process and its cores; see bench/README.md.
type stack struct {
	srv     *alert.Server
	front   *netserve.Server
	bin     *netserve.BinaryServer
	httpSrv *http.Server
	// cli rides binwire for the data plane; jsonCli stays on HTTP/JSON
	// with at most two connections.
	cli     *client.Client
	jsonCli *client.Client
	jsonTr  *http.Transport
	serving sync.WaitGroup
}

func newStack(w workloadDef) (*stack, error) {
	srv, err := alert.NewServer(w.Platform(), w.models(), alert.ServerOptions{})
	if err != nil {
		return nil, err
	}
	s := &stack{srv: srv, front: netserve.New(srv, netserve.Config{MaxInflight: 256, MaxQueue: 4096})}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	binLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		httpLn.Close()
		srv.Close()
		return nil, err
	}
	s.bin = netserve.NewBinary(s.front, binLn, netserve.BinaryConfig{})
	s.httpSrv = &http.Server{Handler: s.front}
	s.serving.Add(2)
	go func() {
		defer s.serving.Done()
		_ = s.bin.Serve() // nil after Close; a dead listener fails every decide, which the run counts
	}()
	go func() {
		defer s.serving.Done()
		_ = s.httpSrv.Serve(httpLn) // ErrServerClosed after Close
	}()

	base := "http://" + httpLn.Addr().String()
	if s.cli, err = client.New(base, client.Options{BinaryAddr: s.bin.Addr()}); err != nil {
		s.close()
		return nil, fmt.Errorf("binwire client: %w", err)
	}
	s.jsonTr = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	s.jsonCli, err = client.New(base, client.Options{HTTPClient: &http.Client{Transport: s.jsonTr}})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("json client: %w", err)
	}
	return s, nil
}

// backendFor returns the wire client the workload's drivers use.
func (s *stack) backendFor(w workloadDef) backend {
	if w.Batch > 0 {
		return clientBackend{s.jsonCli}
	}
	return clientBackend{s.cli}
}

// close stops the clients, both listeners and the shard pool, and waits
// for the serving goroutines.
func (s *stack) close() {
	if s.cli != nil {
		s.cli.Close()
	}
	if s.jsonCli != nil {
		s.jsonCli.Close()
		s.jsonTr.CloseIdleConnections() // Close leaves a caller-supplied HTTP client alone
	}
	s.bin.Close()
	s.httpSrv.Close()
	s.serving.Wait()
	s.srv.Close()
}
