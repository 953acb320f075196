package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"spinnaker/internal/core"
	"spinnaker/internal/transport"
)

// pinnedEndpoint sends every message to one node, whatever the client chose:
// a timeline read through it shows what that replica holds.
type pinnedEndpoint struct {
	transport.Endpoint
	to string
}

func (e pinnedEndpoint) Call(m transport.Message) (transport.Message, error) {
	m.To = e.to
	return e.Endpoint.Call(m)
}

// Close leaves the shared connection to its owner.
func (e pinnedEndpoint) Close() error { return nil }

// auditRows checks the cluster against the audit log once it is quiet: a
// strong read of every written row must return the acknowledged put with
// the highest returned version, and a read pinned to each of the three
// replicas must return the same bytes and version. Every mismatch is
// reported through noteWrong.
func (r *run) auditRows() error {
	if err := r.b.quiesce(quiesceTimeout); err != nil {
		return err
	}
	ep := r.b.endpoint(auditID, true)
	strong := core.NewClient(r.b.layout, ep, r.b.coord, r.seed)
	defer strong.Close() // closes ep
	replicas := make([]*core.Client, len(nodeIDs))
	for i, id := range nodeIDs {
		replicas[i] = core.NewClient(r.b.layout, pinnedEndpoint{ep, id}, r.b.coord, r.seed)
		defer replicas[i].Close()
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2*loadedDepth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				row := int(next.Add(1)) - 1
				if row >= r.wl.rows {
					return
				}
				want := r.audit.get(row)
				if want.ver == 0 && !want.maybe {
					continue // never written
				}
				key := r.keys[row]
				v, ver, err := strong.Get(key, column, true)
				if err != nil {
					r.noteWrong("audit: strong read of %s (acknowledged at version %d): %v", key, want.ver, err)
					continue
				}
				id, err := r.checkValue(v, row)
				switch {
				case err != nil:
					r.noteWrong("audit: %s: %v", key, err)
				case want.maybe && ver >= want.ver:
					// A put of this row failed and may have taken
					// effect after the last acknowledged one.
				case ver != want.ver || id != want.id:
					r.noteWrong("audit: %s holds put %x at version %d, acknowledged put %x at version %d", key, id, ver, want.id, want.ver)
				}
				for i, cl := range replicas {
					rv, rver, err := cl.Get(key, column, false)
					if err != nil || rver != ver || !bytes.Equal(rv, v) {
						r.noteWrong("audit: replica %s of %s: version %d err %v, leader has version %d", nodeIDs[i], key, rver, err, ver)
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := r.wrong.Load(); n > 0 {
		return fmt.Errorf("%d wrong outputs, first: %v", n, r.wrongs)
	}
	return nil
}
