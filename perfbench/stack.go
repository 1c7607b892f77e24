package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/cachesim"
	"repro/internal/fleet"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/perfsim"
	"repro/internal/robust"
	"repro/internal/serve"
)

// registrySpanCap is the completed-span bound `bandwall serve` and
// `bandwall gateway` give their registry.
const registrySpanCap = 1024

// installObs installs a fresh default registry the way `bandwall serve`
// does before it builds its server: every subsystem's names registered,
// the serve tier's too, and the span buffer capped.
func installObs() *obs.Registry {
	reg := obs.NewRegistry()
	cachesim.RegisterObs(reg)
	perfsim.RegisterObs(reg)
	numeric.RegisterObs(reg)
	robust.RegisterObs(reg)
	obs.SetDefault(reg)
	serve.RegisterObs(reg)
	reg.SetSpanCap(registrySpanCap)
	return reg
}

// stack is the system under test, in this process on loopback listeners:
// serve replicas with default Config and no access log, and optionally a
// default-Config gateway in front of them.
type stack struct {
	reg      *obs.Registry
	servers  []*serve.Server
	urls     []string
	entryURL string // where clients send: the gateway if any, else the one replica
	cancel   context.CancelFunc
	done     chan error
	running  int
}

// startStack installs a fresh registry and starts the given number of
// replicas, with a gateway in front when withGateway is set.
func startStack(replicas int, withGateway bool) (*stack, error) {
	ctx, cancel := context.WithCancel(context.Background())
	st := &stack{reg: installObs(), cancel: cancel, done: make(chan error, replicas+1)}
	for range replicas {
		s := serve.NewServer(serve.Config{})
		url, err := st.serve(ctx, s.Serve)
		if err != nil {
			_ = st.close() // the start error is the one to report
			return nil, err
		}
		st.servers = append(st.servers, s)
		st.urls = append(st.urls, url)
	}
	st.entryURL = st.urls[0]
	if withGateway {
		g, err := fleet.NewGateway(fleet.Config{Replicas: st.urls})
		if err != nil {
			_ = st.close() // the start error is the one to report
			return nil, fmt.Errorf("starting gateway: %w", err)
		}
		if st.entryURL, err = st.serve(ctx, g.Serve); err != nil {
			_ = st.close() // the start error is the one to report
			return nil, err
		}
	}
	return st, nil
}

// serve runs one Serve method on a fresh loopback listener until the
// stack's context ends.
func (st *stack) serve(ctx context.Context, run func(context.Context, net.Listener) error) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("loopback listener: %w", err)
	}
	st.running++
	go func() { st.done <- run(ctx, l) }()
	return "http://" + l.Addr().String(), nil
}

// server returns the replica serving at url.
func (st *stack) server(url string) (*serve.Server, bool) {
	for i, u := range st.urls {
		if u == url {
			return st.servers[i], true
		}
	}
	return nil, false
}

// close drains every server and waits until each has returned.
func (st *stack) close() error {
	st.cancel()
	var errs []error
	for range st.running {
		if err := <-st.done; err != nil {
			errs = append(errs, err)
		}
	}
	st.running = 0
	return errors.Join(errs...)
}

// newClient is a load-generator client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}
