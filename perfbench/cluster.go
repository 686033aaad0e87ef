package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dtio/internal/flightrec"
	"dtio/internal/iostats"
	"dtio/internal/pvfs"
	"dtio/internal/storage"
	"dtio/internal/transport"
)

// nServers is the I/O server count (nproc = 2 in the paper's terms) and
// stripBytes the strip size every benchmark file is created with.
const (
	nServers   = 2
	stripBytes = 64 * 1024
)

// cluster is one metadata server and nServers I/O servers in this
// process, over loopback TCP, each object a file under dir. Servers are
// configured as the pvfs-server daemon configures them by default.
// Objects are written with pwrite/pwritev and never fsynced, on every
// run alike: the benchmark measures the page-cache path.
type cluster struct {
	env      *transport.RealEnv
	net      transport.Network // what clients dial through
	meta     *pvfs.MetaServer
	servers  []*pvfs.Server
	metaAddr string
	addrs    []string
	dir      string

	mu     sync.Mutex
	stores []*storage.File
}

// startCluster brings a cluster up under dir. A non-nil rec wraps the
// client and server networks and every object store, so the traced run
// can attribute each call's time to the layers it crosses.
func startCluster(dir string, rec *recorder) (*cluster, error) {
	tcp := transport.NewTCPNetwork()
	c := &cluster{env: transport.NewRealEnv(), net: tcp, dir: dir}
	addrs, err := freeAddrs(tcp, 1+nServers)
	if err != nil {
		return nil, err
	}
	c.metaAddr, c.addrs = addrs[0], addrs[1:]
	var serverNet transport.Network = tcp
	if rec != nil {
		c.net = rec.clientNet(tcp, c.addrs)
		serverNet = rec.serverNet(tcp, c.addrs)
	}
	c.meta = pvfs.NewMetaServer(tcp, c.metaAddr, nServers)
	go c.meta.Serve(c.env)
	for i, addr := range c.addrs {
		s := pvfs.NewServer(serverNet, addr, i, pvfs.CostModel{})
		s.SieveGapBytes = pvfs.DefaultSieveGapBytes
		s.Stats = &iostats.Stats{}
		s.Metrics = &pvfs.ServerMetrics{}
		s.Flight = flightrec.New(4096)
		idx := i
		s.NewStore = func(handle uint64) storage.Store {
			st, err := storage.OpenFile(filepath.Join(dir, fmt.Sprintf("s%d-%016x", idx, handle)))
			if err != nil {
				// NewStore cannot return an error; a missing object
				// directory is a broken benchmark environment.
				fmt.Fprintf(os.Stderr, "perfbench: open object: %v\n", err)
				os.Exit(1)
			}
			c.mu.Lock()
			c.stores = append(c.stores, st)
			c.mu.Unlock()
			if rec != nil {
				return rec.store(idx, st)
			}
			return st
		}
		c.servers = append(c.servers, s)
		go s.Serve(c.env)
	}
	if err := c.waitUp(); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// freeAddrs returns n distinct free loopback addresses. Every listener
// stays open until all are known, so no port is handed out twice.
func freeAddrs(tcp transport.Network, n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := tcp.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addr, ok := transport.BoundAddr(l)
		if !ok {
			return nil, fmt.Errorf("listener has no bound address")
		}
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

// waitUp returns once the metadata server and every I/O server answer.
func (c *cluster) waitUp() error {
	cl := c.client()
	defer cl.Close()
	var last error
	for i := 0; i < 2000; i++ {
		if last = c.probe(cl); last == nil {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("cluster did not come up: %w", last)
}

// probe creates, stats and removes a file striped over every server. A
// failed earlier attempt may have left the file behind.
func (c *cluster) probe(cl *pvfs.Client) error {
	f, err := cl.Open(c.env, "__probe__")
	if err != nil {
		f, err = cl.Create(c.env, "__probe__", stripBytes, 0)
	}
	if err != nil {
		return err
	}
	if _, err := f.Size(c.env); err != nil {
		return err
	}
	return cl.Remove(c.env, "__probe__")
}

func (c *cluster) client() *pvfs.Client {
	return pvfs.NewClient(c.net, c.metaAddr, c.addrs, pvfs.CostModel{})
}

// serverStats fetches every I/O server's counters over the admin path.
func (c *cluster) serverStats(cl *pvfs.Client) ([]*pvfs.ServerSnapshot, error) {
	out := make([]*pvfs.ServerSnapshot, len(c.servers))
	for i := range c.servers {
		snap, err := cl.FetchStats(c.env, i)
		if err != nil {
			return nil, err
		}
		out[i] = snap
	}
	return out, nil
}

// stop closes the daemons and their object files and removes dir.
func (c *cluster) stop() {
	c.meta.Close()
	for _, s := range c.servers {
		s.Close()
	}
	c.mu.Lock()
	for _, st := range c.stores {
		st.Close()
	}
	c.stores = nil
	c.mu.Unlock()
	os.RemoveAll(c.dir)
}
