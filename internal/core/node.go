package core

import (
	"cmp"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"spinnaker/internal/cluster"
	"spinnaker/internal/coord"
	"spinnaker/internal/metrics"
	"spinnaker/internal/sstable"
	"spinnaker/internal/storage"
	"spinnaker/internal/transport"
	"spinnaker/internal/wal"
)

// Stores bundles a node's stable storage: the shared log's segments, the
// metadata store (skipped-LSN lists, storage manifests), and per-cohort
// SSTable stores. It outlives Node instances — a restarted node is a new
// Node over the same Stores, which is how crash/recovery is exercised.
type Stores struct {
	Segments wal.SegmentStore
	Meta     wal.MetaStore

	mu        sync.Mutex
	tables    map[uint32]sstable.TableStore
	newTables func(cohort uint32) (sstable.TableStore, error)
}

// NewMemStores returns in-memory stores whose logging device uses the given
// latency profile; the stores survive Node crashes like real disks.
func NewMemStores(profile wal.DeviceProfile) *Stores {
	return &Stores{
		Segments: wal.NewMemSegmentStore(profile),
		Meta:     wal.NewMemMetaStore(),
		tables:   make(map[uint32]sstable.TableStore),
		newTables: func(uint32) (sstable.TableStore, error) {
			return sstable.NewMemTableStore(), nil
		},
	}
}

// NewFileStores returns file-backed stores rooted at dir.
func NewFileStores(dir string) (*Stores, error) {
	segs, err := wal.NewFileSegmentStore(filepath.Join(dir, "log"))
	if err != nil {
		return nil, err
	}
	meta, err := wal.NewFileMetaStore(filepath.Join(dir, "meta"))
	if err != nil {
		return nil, err
	}
	return &Stores{
		Segments: segs,
		Meta:     meta,
		tables:   make(map[uint32]sstable.TableStore),
		newTables: func(cohort uint32) (sstable.TableStore, error) {
			return sstable.NewFileTableStore(filepath.Join(dir, fmt.Sprintf("sst-%d", cohort)))
		},
	}, nil
}

// Tables returns the SSTable store for a cohort, creating it on first use.
func (s *Stores) Tables(cohort uint32) (sstable.TableStore, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ts, ok := s.tables[cohort]; ok {
		return ts, nil
	}
	ts, err := s.newTables(cohort)
	if err != nil {
		return nil, err
	}
	s.tables[cohort] = ts
	return ts, nil
}

// Crash applies crash semantics to in-memory stores: the log loses its
// unforced tail. SSTables and metadata survive (they are written
// atomically and durably).
func (s *Stores) Crash() {
	if ms, ok := s.Segments.(*wal.MemSegmentStore); ok {
		ms.Crash()
	}
}

// Fail simulates a permanent disk failure (§6.1): log, metadata, and
// SSTables are all destroyed.
func (s *Stores) Fail() {
	if ms, ok := s.Segments.(*wal.MemSegmentStore); ok {
		ms.Fail()
	}
	if mm, ok := s.Meta.(*wal.MemMetaStore); ok {
		mm.Fail()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ts := range s.tables {
		if mt, ok := ts.(*sstable.MemTableStore); ok {
			mt.Fail()
		}
	}
}

// Config controls a Node.
type Config struct {
	// ID is the node's identity in the cluster layout and on the network.
	ID string
	// Layout is the bootstrap partitioning. If a newer layout has been
	// published through the coordination service (PublishLayout), the
	// node adopts it at startup and follows every subsequent version
	// live — creating, retiring, and re-membering replicas as cohorts
	// move (elastic scale-out).
	Layout *cluster.Layout
	// CommitPeriod is the interval between the leader's asynchronous
	// commit messages (§5). The paper uses 1s in production settings and
	// evaluates 1–15s (Table 1); the in-process default is 25ms, playing
	// the role of the paper's 1s at the harness's reduced time scale.
	CommitPeriod time.Duration
	// WriteTimeout bounds how long a client write waits for quorum.
	WriteTimeout time.Duration
	// ElectionTimeout is the retry interval while waiting for election
	// majorities or a winner's takeover.
	ElectionTimeout time.Duration
	// TakeoverTimeout bounds follower syncs during takeover.
	TakeoverTimeout time.Duration
	// RetryInterval is the back-off between catch-up attempts.
	RetryInterval time.Duration
	// HeartbeatInterval paces session heartbeats to the coordination
	// service (§4.2: normally the only traffic to it).
	HeartbeatInterval time.Duration
	// FlushInterval paces the background memtable flush / compaction /
	// log truncation daemon.
	FlushInterval time.Duration
	// FlushBytes and MaxTables tune the per-cohort storage engines.
	FlushBytes int64
	MaxTables  int
	// SegmentBytes is the shared log's roll threshold.
	SegmentBytes int64
}

func (c *Config) fillDefaults() {
	if c.CommitPeriod <= 0 {
		c.CommitPeriod = 25 * time.Millisecond
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.ElectionTimeout <= 0 {
		c.ElectionTimeout = 250 * time.Millisecond
	}
	if c.TakeoverTimeout <= 0 {
		c.TakeoverTimeout = 5 * time.Second
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 20 * time.Millisecond
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 200 * time.Millisecond
	}
}

// Node is one Spinnaker server: up to N cohort replicas sharing one
// write-ahead log, one coordination-service session, and one network
// endpoint (paper Figure 3: replication and remote recovery; logging and
// local recovery; commit queue; memtables and SSTables; failure detection,
// group membership, and leader election via the coordination service).
type Node struct {
	cfg       Config
	stores    *Stores
	ep        transport.Endpoint
	coordSess *coord.Session
	log       *wal.Log
	meta      wal.MetaStore

	// layoutMu guards the current layout and the replica map, both of
	// which change when a published layout is adopted live. replicaSnap
	// lists the map's replicas in range order; it is replaced whenever the
	// map changes, never mutated, so a reader may keep it past layoutMu.
	layoutMu    sync.RWMutex
	layout      *cluster.Layout
	replicas    map[uint32]*replica
	replicaSnap []*replica

	stopCh chan struct{}
	loopMu sync.Mutex
	wg     sync.WaitGroup

	// adoptions counts completed layout adoptions (reconfig events).
	adoptions metrics.Counter
}

// getReplica returns the replica serving rangeID, if any.
func (n *Node) getReplica(rangeID uint32) *replica {
	n.layoutMu.RLock()
	defer n.layoutMu.RUnlock()
	return n.replicas[rangeID]
}

// replicaList returns the current replicas, in range order. The slice is
// shared: callers must not write to it.
func (n *Node) replicaList() []*replica {
	n.layoutMu.RLock()
	defer n.layoutMu.RUnlock()
	return n.replicaSnap
}

// snapReplicasLocked replaces replicaSnap after a change to the replica map;
// callers hold layoutMu for writing.
func (n *Node) snapReplicasLocked() {
	snap := make([]*replica, 0, len(n.replicas))
	for _, r := range n.replicas {
		snap = append(snap, r)
	}
	slices.SortFunc(snap, func(a, b *replica) int { return cmp.Compare(a.rangeID, b.rangeID) })
	n.replicaSnap = snap
}

// layoutVersion returns the version of the layout the node currently runs.
func (n *Node) layoutVersion() uint64 {
	n.layoutMu.RLock()
	defer n.layoutMu.RUnlock()
	if n.layout == nil {
		return 0
	}
	return n.layout.Version()
}

// NewNode builds a node over its stable stores. Call Start to run local
// recovery and join the cluster.
func NewNode(cfg Config, stores *Stores, ep transport.Endpoint, coordSvc *coord.Service) (*Node, error) {
	cfg.fillDefaults()
	if cfg.Layout == nil {
		return nil, errors.New("core: Config.Layout is required")
	}
	log, err := wal.Open(wal.Config{
		Store:        stores.Segments,
		SegmentBytes: cfg.SegmentBytes,
		GroupCommit:  true,
	})
	if err != nil {
		return nil, fmt.Errorf("core: open log: %w", err)
	}
	n := &Node{
		cfg:       cfg,
		stores:    stores,
		ep:        ep,
		coordSess: coordSvc.Connect(),
		log:       log,
		meta:      stores.Meta,
		replicas:  make(map[uint32]*replica),
		stopCh:    make(chan struct{}),
	}
	n.layout = cfg.Layout
	for _, rangeID := range cfg.Layout.RangesOf(cfg.ID) {
		r, err := n.buildReplica(cfg.Layout, rangeID)
		if err != nil {
			return nil, err
		}
		// If this node once left the range's cohort, the durable
		// departed marker survives any crash in the rejoin window
		// (e.g. after the re-adding layout was published but before
		// adoptLayout ran): the local state is pre-departure and must
		// be discarded exactly as a live adoption would discard it.
		if data, ok, err := n.meta.Get(departedKey(rangeID)); err == nil && ok && len(data) > 0 {
			if err := n.resetRejoinState(r); err != nil {
				return nil, fmt.Errorf("core: reset rejoined range %d: %w", rangeID, err)
			}
		}
		n.replicas[rangeID] = r
	}
	n.snapReplicasLocked()
	return n, nil
}

// departedKey is the metadata key of the durable "this node left range r's
// cohort" marker; see retire and resetRejoinState.
func departedKey(r uint32) string { return fmt.Sprintf("departed/%d", r) }

// resetRejoinState discards a (re-)joining replica's stale pre-departure
// state: the engine is durably wiped, a RecResetCohort marker makes local
// recovery discard the old-era log records, and the departed marker is
// cleared. Without this, keys deleted cluster-wide while the node was out
// of the cohort — whose tombstones were then compacted away, so catch-up
// can never mention them — would resurrect from the node's old SSTables or
// log records.
func (n *Node) resetRejoinState(r *replica) error {
	if err := r.engine.Wipe(); err != nil {
		return err
	}
	end, err := n.log.Append(wal.Record{Cohort: r.rangeID, Type: wal.RecResetCohort})
	if err != nil {
		return err
	}
	if err := n.log.ForceTo(end); err != nil {
		return err
	}
	return n.meta.Delete(departedKey(r.rangeID))
}

// buildReplica constructs (without starting) this node's replica of one
// range of layout l: its storage engine plus the membership-derived fields
// (peers, quorum, bounds, home node, split origin).
func (n *Node) buildReplica(l *cluster.Layout, rangeID uint32) (*replica, error) {
	tables, err := n.stores.Tables(rangeID)
	if err != nil {
		return nil, err
	}
	engine, err := storage.Open(storage.Config{
		Tables:     tables,
		Meta:       n.stores.Meta,
		Cohort:     rangeID,
		FlushBytes: n.cfg.FlushBytes,
		MaxTables:  n.cfg.MaxTables,
	})
	if err != nil {
		return nil, fmt.Errorf("core: open engine for range %d: %w", rangeID, err)
	}
	var peers []string
	for _, member := range l.Cohort(rangeID) {
		if member != n.cfg.ID {
			peers = append(peers, member)
		}
	}
	low, high := l.Bounds(rangeID)
	r := &replica{
		n:             n,
		rangeID:       rangeID,
		peers:         peers,
		quorum:        l.Quorum(rangeID),
		low:           low,
		high:          high,
		home:          l.HomeNode(rangeID),
		skipped:       wal.NewSkippedLSNs(),
		queue:         newCommitQueue(),
		engine:        engine,
		peerFloors:    make(map[string]wal.LSN),
		electionNudge: make(chan struct{}, 1),
		ackNudge:      make(chan struct{}, 1),
		drainNudge:    make(chan struct{}, 1),
		pending:       chunk[pendingWrite]{size: pendingBlock},
		stopCh:        make(chan struct{}),
		m:             newRangeMetrics(),
	}
	if origin, ok := l.Origin(rangeID); ok {
		r.origin, r.hasOrigin = origin, true
	}
	return r, nil
}

// adoptLayout switches the node to a newer published layout: replicas for
// ranges this node no longer serves retire, replicas for newly assigned
// ranges are created (recovering; they earn currency through catch-up or a
// split pull before serving), and retained replicas update their bounds and
// cohort membership in place. It reports whether adoption completed; on a
// transient storage failure the recorded layout version is NOT advanced, so
// the caller retries (adoption is idempotent: retired replicas stay gone,
// kept replicas re-apply, only the missing ones are rebuilt).
func (n *Node) adoptLayout(l *cluster.Layout) bool {
	n.layoutMu.RLock()
	if n.layout != nil && l.Version() <= n.layout.Version() {
		n.layoutMu.RUnlock()
		return true
	}
	have := make(map[uint32]bool, len(n.replicas))
	for id := range n.replicas {
		have[id] = true
	}
	n.layoutMu.RUnlock()

	desired := make(map[uint32]bool)
	for _, id := range l.RangesOf(n.cfg.ID) {
		desired[id] = true
	}

	// Build new replicas outside layoutMu: storage.Open hits the disk on
	// file-backed deployments, and holding the write lock would stall
	// every replica's message dispatch for the duration. Only layoutLoop
	// mutates the replica map, so the have-snapshot cannot go stale.
	complete := true
	built := make(map[uint32]*replica)
	for id := range desired {
		if have[id] {
			continue
		}
		r, err := n.buildReplica(l, id)
		if err != nil {
			complete = false // storage failure; the caller retries
			continue
		}
		// This node is (re-)joining the cohort from outside: discard
		// any stale pre-departure state (see resetRejoinState; a crash
		// before this point is covered by the durable departed marker,
		// which routes the restart through the same reset in NewNode).
		if err := n.resetRejoinState(r); err != nil {
			complete = false
			continue
		}
		// A split-created range: its data lives with the origin range's
		// cohort. Do not stand for election (an empty candidate could win
		// an empty leadership and the moved rows would be lost) until the
		// first pull succeeds.
		r.mu.Lock()
		r.recoverLocked(r.hasOrigin)
		r.mu.Unlock()
		built[id] = r
	}

	n.layoutMu.Lock()
	var retired, added, kept []*replica
	for id, r := range n.replicas {
		if !desired[id] {
			retired = append(retired, r)
			delete(n.replicas, id)
		} else {
			kept = append(kept, r)
		}
	}
	for id, r := range built {
		n.replicas[id] = r
		added = append(added, r)
	}
	n.snapReplicasLocked()
	if complete {
		n.layout = l
	}
	n.layoutMu.Unlock()

	for _, r := range retired {
		r.retire()
	}
	for _, r := range kept {
		r.applyLayout(l)
	}
	for _, r := range added {
		n.startReplica(r)
		r.wantCatchup()
	}
	if complete {
		n.adoptions.Inc()
	}
	return complete
}

// layoutLoop follows the published layout znode for the life of the node,
// adopting every newer version; incomplete adoptions (transient storage
// failures) are retried on a timer rather than waiting for the next
// publication, which may never come.
func (n *Node) layoutLoop() {
	sess := n.coordSess
	for !n.stopped() {
		watch, err := sess.Watch(LayoutPath)
		if err != nil {
			return // session gone; node is shutting down
		}
		complete := true
		if l, err := FetchLayout(sess); err == nil {
			complete = n.adoptLayout(l)
		}
		if complete {
			select {
			case <-watch:
			case <-n.stopCh:
				return
			}
			continue
		}
		select {
		case <-watch:
		case <-time.After(10 * n.cfg.RetryInterval):
		case <-n.stopCh:
			return
		}
	}
}

// Start runs local recovery (one shared scan of the log feeding all
// replicas, §6) and then joins the cluster: message handling, election
// loops, the commit timer, flush daemon, and heartbeats.
func (n *Node) Start() error {
	perCohort := make(map[uint32][]wal.Record)
	if err := n.log.Scan(func(rec wal.Record) error {
		if _, ok := n.replicas[rec.Cohort]; ok {
			perCohort[rec.Cohort] = append(perCohort[rec.Cohort], rec)
		}
		return nil
	}); err != nil {
		return fmt.Errorf("core: recovery scan: %w", err)
	}
	for rangeID, r := range n.replicas {
		if err := r.localRecover(perCohort[rangeID]); err != nil {
			return err
		}
	}

	n.ep.SetHandler(n.handle)
	for _, r := range n.replicas {
		n.startReplica(r)
	}
	n.goLoop(n.commitTimer)
	n.goLoop(n.flushLoop)
	n.goLoop(n.heartbeatLoop)
	// layoutLoop immediately adopts the published layout if it is newer
	// than the bootstrap one, then follows every subsequent version.
	n.goLoop(n.layoutLoop)
	return nil
}

// startReplica starts a replica's loops: its election loop, its leader-side
// drain loop and its follower-side ack loop.
func (n *Node) startReplica(r *replica) {
	n.goLoop(r.electionLoop)
	n.goLoop(r.drainLoop)
	n.goLoop(r.ackLoop)
}

// goLoop runs fn on a goroutine Stop waits for, unless the node has stopped:
// message handlers start catch-up runs, and a wg.Add must not race wg.Wait.
func (n *Node) goLoop(fn func()) {
	n.loopMu.Lock()
	defer n.loopMu.Unlock()
	if n.stopped() {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		fn()
	}()
}

// handle dispatches inbound messages. It runs on per-sender link
// goroutines, so messages from one peer are processed in order.
func (n *Node) handle(m transport.Message) {
	r := n.getReplica(m.Cohort)
	if r == nil {
		// Client operations for a range this node does not serve are a
		// routing miss: under live reconfiguration the client's layout
		// may be stale (the range moved away, or was retired by a
		// split), so tell it to refresh rather than to give up.
		detail := fmt.Sprintf("node does not serve range %d (layout v%d)", m.Cohort, n.layoutVersion())
		switch m.Kind {
		case MsgGet:
			n.reply(m, transport.Message{Payload: encodeGetResp(getResp{Status: StatusWrongLayout})})
		case MsgGetRow:
			n.reply(m, transport.Message{Payload: encodeRowResp(rowResp{Status: StatusWrongLayout})})
		case MsgWrite:
			n.reply(m, transport.Message{Payload: encodeWriteResult(nil, writeResult{
				Status: StatusWrongLayout, Detail: detail})})
		case MsgCatchupReq:
			n.reply(m, transport.Message{Payload: encodeCatchupResp(catchupResp{Status: StatusNotLeader})})
		case MsgTableChunkReq:
			n.reply(m, transport.Message{Kind: MsgTableChunk,
				Payload: encodeTableChunk(tableChunk{Status: StatusNotFound})})
		}
		return
	}
	switch m.Kind {
	case MsgGet:
		n.handleGet(r, m)
	case MsgGetRow:
		req, err := decodeGetReq(m.Payload)
		if err != nil {
			return
		}
		n.reply(m, transport.Message{Cohort: m.Cohort, Payload: encodeRowResp(r.getRow(req))})
	case MsgWrite:
		// Sequence now, reply on commit. The link goroutine is freed
		// immediately, so one client's pipelined writes coalesce into
		// shared batches instead of running in lockstep.
		r.submitWriteAsync(m)
	case MsgProposeBatch:
		r.onProposeBatch(m)
	case MsgAckBatch:
		r.onAckBatch(m)
	case MsgCommit:
		r.onCommitMsg(m)
	case MsgStateReq:
		r.onStateReq(m)
	case MsgTakeover:
		r.onTakeover(m)
	case MsgCatchupReq:
		r.onCatchupReq(m)
	case MsgTableChunkReq:
		r.onTableChunkReq(m)
	}
}

// handleGet is handle's MsgGet arm: decode, serve, reply. The cell a table
// hit returns aliases that table's blob; encodeGetResp copies it out.
//
//spinnaker:hotpath
func (n *Node) handleGet(r *replica, m transport.Message) {
	req, err := decodeGetReq(m.Payload)
	if err != nil {
		return
	}
	n.reply(m, transport.Message{Cohort: m.Cohort, Payload: encodeGetResp(r.get(req))})
}

// replyWrite implements writeReplier: it answers the client write req with
// out, reporting lsn as the version of the write's columns, encoded onto dst.
//
//spinnaker:hotpath
func (n *Node) replyWrite(req transport.Message, out writeOutcome, lsn wal.LSN, dst []byte) {
	n.reply(req, transport.Message{Cohort: req.Cohort, Payload: encodeWriteResult(dst, writeResult{
		Status: out.status, Detail: out.detail, Version: uint64(lsn)})})
}

// commitTimer drives the leader's periodic asynchronous commit messages
// (§5: "the interval for commit messages is called the commit period").
func (n *Node) commitTimer() {
	t := time.NewTicker(n.cfg.CommitPeriod)
	defer t.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-t.C:
			for _, r := range n.replicaList() {
				r.sendCommitMessages()
			}
		}
	}
}

// flushLoop runs background storage maintenance: memtable flushes, SSTable
// compaction (gated by the cohort tombstone-GC watermark), shared-log
// truncation once every cohort's writes are captured (§6.1), and
// skipped-LSN list garbage collection (§6.1.1).
func (n *Node) flushLoop() {
	t := time.NewTicker(n.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-t.C:
			replicas := n.replicaList()
			captured := make(map[uint32]wal.LSN, len(replicas))
			for _, r := range replicas {
				// A maintenance error is retried next tick; the
				// accounting below still runs — a flush that
				// succeeded before its compaction failed advanced
				// the checkpoint, and skipping the truncation
				// bookkeeping for it would pin the shared log (and
				// the skipped-LSN list) on a replica whose state
				// was in fact captured.
				_, _, _ = r.engine.MaybeFlush(r.tombstoneGC())
				cp := r.engine.Checkpoint()
				captured[r.rangeID] = cp
				r.mu.Lock()
				r.skipped.GC(cp)
				r.mu.Unlock()
			}
			_, _ = n.log.DropCapturedSegments(captured)
		}
	}
}

// heartbeatLoop keeps the coordination-service session alive; a crashed
// node stops heartbeating and the service expires its ephemerals, which is
// what triggers elections (§4.2).
func (n *Node) heartbeatLoop() {
	t := time.NewTicker(n.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-t.C:
			if err := n.coordSess.Heartbeat(); err != nil {
				return
			}
		}
	}
}

// readEpochZnode returns the range's epoch as stored in the coordination
// service (0 if unreadable). Candidates stamp their registrations with it
// to scope election rounds.
func (n *Node) readEpochZnode(rangeID uint32) uint32 {
	data, err := n.coordSess.Get(epochPath(rangeID))
	if err != nil {
		return 0
	}
	return decodeEpoch(data)
}

// bumpEpoch atomically increments a range's epoch in the coordination
// service and returns the new value (App. B: stored in Zookeeper before
// the new leader accepts writes).
func (n *Node) bumpEpoch(rangeID uint32) (uint32, error) {
	for {
		data, ver, err := n.coordSess.GetVersion(epochPath(rangeID))
		if err != nil {
			return 0, err
		}
		next := decodeEpoch(data) + 1
		if _, err := n.coordSess.CompareAndSet(epochPath(rangeID), encodeEpoch(next), ver); err == nil {
			return next, nil
		} else if !errors.Is(err, coord.ErrBadVersion) {
			return 0, err
		}
	}
}

// readLeader returns the current leader of a range per the coordination
// service, or "".
func (n *Node) readLeader(rangeID uint32) string {
	data, err := n.coordSess.Get(leaderPath(rangeID))
	if err != nil {
		return ""
	}
	return string(data)
}

func (n *Node) send(to string, m transport.Message) {
	m.To = to
	_ = n.ep.Send(m)
}

func (n *Node) call(to string, m transport.Message) (transport.Message, error) {
	m.To = to
	return n.ep.Call(m)
}

func (n *Node) reply(req transport.Message, m transport.Message) {
	_ = n.ep.Reply(req, m)
}

// halt closes stopCh once, under loopMu (see goLoop).
func (n *Node) halt() {
	n.loopMu.Lock()
	defer n.loopMu.Unlock()
	if !n.stopped() {
		close(n.stopCh)
	}
}

func (n *Node) stopped() bool {
	select {
	case <-n.stopCh:
		return true
	default:
		return false
	}
}

// ID returns the node's identity.
func (n *Node) ID() string { return n.cfg.ID }

// Ranges returns the ids of the ranges this node replicates.
func (n *Node) Ranges() []uint32 {
	replicas := n.replicaList()
	out := make([]uint32, 0, len(replicas))
	for _, r := range replicas {
		out = append(out, r.rangeID)
	}
	return out
}

// LayoutVersion returns the version of the cluster layout the node runs.
func (n *Node) LayoutVersion() uint64 { return n.layoutVersion() }

// StepDown asks this node to relinquish leadership of rangeID (leadership
// transfer during rebalancing): the replica closes for writes, releases the
// leader znode, and abstains from the next election round so another cohort
// member — preferentially the layout's home node, via the election
// tie-break — can take over. It reports whether the node was the leader.
func (n *Node) StepDown(rangeID uint32) bool {
	r := n.getReplica(rangeID)
	if r == nil {
		return false
	}
	return r.stepDown()
}

// ReplicaStats reports a replica's protocol state (tests and tooling).
func (n *Node) ReplicaStats(rangeID uint32) (ReplicaStats, bool) {
	r := n.getReplica(rangeID)
	if r == nil {
		return ReplicaStats{}, false
	}
	return r.stats(), true
}

// LogTruncated reports the cohort's log-truncation point on this node: a
// follower whose f.cmt is below it can no longer catch up by entry replay
// alone (tests and tooling).
func (n *Node) LogTruncated(cohort uint32) wal.LSN { return n.log.Truncated(cohort) }

// Stop shuts the node down gracefully: loops stop, the session closes
// (deleting its ephemerals), and the log is forced and closed.
func (n *Node) Stop() {
	n.halt()
	n.ep.Close()
	n.coordSess.Close()
	n.wg.Wait()
	_ = n.log.Close() // shutting down: nobody is left to act on the error
}

// Crash simulates a process crash: loops die, the endpoint drops off the
// network, and the coordination session expires as the service would
// detect via missed heartbeats. Volatile state (memtables, commit queues)
// is simply abandoned with the Node object; the unforced log tail is
// discarded by Stores.Crash, which the simulation harness invokes next.
func (n *Node) Crash() {
	n.halt()
	n.ep.Close()
	n.coordSess.Expire()
	n.wg.Wait()
}
