// Package coord implements the distributed coordination service Spinnaker
// delegates failure detection, group membership, leader election, and epoch
// storage to (paper §4.2, §7.1). It mirrors the Zookeeper primitives the
// paper relies on: a tree of znodes addressed by slash-separated paths, each
// carrying binary data; persistent and ephemeral znodes (ephemerals are
// deleted automatically when the creating session dies); sequential znodes
// that get a unique, monotonically increasing identifier appended on
// creation; and one-shot watches that notify a client of changes to a znode
// or its children.
//
// As in the paper, the service is assumed fault tolerant (Zookeeper is
// itself Paxos-replicated) and is NOT in the critical path of reads and
// writes: Spinnaker nodes exchange only heartbeats with it outside of
// elections and recovery.
package coord

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Flags control znode creation.
type Flags uint8

const (
	// FlagEphemeral marks a znode for automatic deletion when the
	// creating session expires or closes.
	FlagEphemeral Flags = 1 << iota
	// FlagSequential appends a unique, monotonically increasing counter
	// to the znode name at creation.
	FlagSequential
)

// EventType classifies watch notifications.
type EventType uint8

const (
	// EventCreated fires when the watched path is created.
	EventCreated EventType = 1 + iota
	// EventDeleted fires when the watched path is deleted.
	EventDeleted
	// EventDataChanged fires when the watched path's data changes.
	EventDataChanged
	// EventChildrenChanged fires when a child is created or deleted
	// under the watched path.
	EventChildrenChanged
	// EventSessionExpired fires on every watch of an expired session.
	EventSessionExpired
)

// String implements fmt.Stringer.
func (t EventType) String() string {
	switch t {
	case EventCreated:
		return "created"
	case EventDeleted:
		return "deleted"
	case EventDataChanged:
		return "dataChanged"
	case EventChildrenChanged:
		return "childrenChanged"
	case EventSessionExpired:
		return "sessionExpired"
	default:
		return fmt.Sprintf("EventType(%d)", uint8(t))
	}
}

// Event is a watch notification.
type Event struct {
	Type EventType
	Path string
}

// Errors returned by the service.
var (
	ErrNoNode        = errors.New("coord: no such znode")
	ErrNodeExists    = errors.New("coord: znode already exists")
	ErrNotEmpty      = errors.New("coord: znode has children")
	ErrSessionClosed = errors.New("coord: session expired or closed")
	ErrBadVersion    = errors.New("coord: version mismatch")
)

type znode struct {
	data     []byte
	version  uint64
	owner    int64 // session id for ephemerals, 0 otherwise
	seqNo    uint64
	nextSeq  uint64 // counter for sequential children
	children map[string]*znode
}

// Service is the coordination service. One Service instance plays the role
// of the whole (replicated, fault tolerant) Zookeeper ensemble.
type Service struct {
	mu       sync.Mutex
	root     *znode
	sessions map[int64]*Session
	nextSess int64
	verSeq   uint64 // global version counter; see nextVersionLocked
	timeout  time.Duration
	stopCh   chan struct{}
	stopOnce sync.Once
}

// nextVersionLocked allocates a globally unique, monotonically increasing
// znode version. Versions are assigned from one counter (at creation and on
// every data change) rather than per-znode increments so that a znode
// deleted and re-created never repeats a version — which is what makes
// version-guarded operations (CompareAndSet, DeleteVersion) safe against
// delete/re-create races, not just against data changes. Callers hold s.mu.
//
//spinnaker:locked(mu)
func (s *Service) nextVersionLocked() uint64 {
	s.verSeq++
	return s.verSeq
}

// NewService returns a service whose sessions expire when not heartbeated
// within sessionTimeout. A zero timeout disables timer-based expiry;
// sessions then die only via Close or the Expire fault injection (tests use
// this for determinism).
func NewService(sessionTimeout time.Duration) *Service {
	s := &Service{
		root:     newZnode(),
		sessions: make(map[int64]*Session),
		timeout:  sessionTimeout,
		stopCh:   make(chan struct{}),
	}
	if sessionTimeout > 0 {
		go s.expiryLoop()
	}
	return s
}

func newZnode() *znode {
	return &znode{children: make(map[string]*znode)}
}

// Stop terminates the expiry loop; existing sessions stay usable.
func (s *Service) Stop() {
	s.stopOnce.Do(func() { close(s.stopCh) })
}

func (s *Service) expiryLoop() {
	tick := time.NewTicker(s.timeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case now := <-tick.C:
			s.mu.Lock()
			var expired []*Session
			for _, sess := range s.sessions {
				if now.Sub(sess.lastBeat) > s.timeout {
					expired = append(expired, sess)
				}
			}
			s.mu.Unlock()
			for _, sess := range expired {
				sess.Expire()
			}
		}
	}
}

// Connect opens a new session.
func (s *Service) Connect() *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSess++
	sess := &Session{
		svc:      s,
		id:       s.nextSess,
		lastBeat: time.Now(),
		watches:  make(map[<-chan Event]*watch),
	}
	s.sessions[sess.id] = sess
	return sess
}

// split normalizes a path into components; "" and "/" address the root.
func split(path string) []string {
	path = strings.Trim(path, "/")
	if path == "" {
		return nil
	}
	return strings.Split(path, "/")
}

// lookup returns the znode at path; callers hold s.mu.
func (s *Service) lookup(path string) (*znode, error) {
	n := s.root
	for _, part := range split(path) {
		child, ok := n.children[part]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoNode, path)
		}
		n = child
	}
	return n, nil
}

// parentAndName returns the parent znode and the final path component;
// callers hold s.mu.
func (s *Service) parentAndName(path string) (*znode, string, error) {
	parts := split(path)
	if len(parts) == 0 {
		return nil, "", fmt.Errorf("coord: cannot operate on root")
	}
	n := s.root
	for _, part := range parts[:len(parts)-1] {
		child, ok := n.children[part]
		if !ok {
			return nil, "", fmt.Errorf("%w: %s", ErrNoNode, path)
		}
		n = child
	}
	return n, parts[len(parts)-1], nil
}

// watch is a registered one-shot watch.
type watch struct {
	path     string
	children bool // fire on child changes rather than node changes
	ch       chan Event
}

// A Session is one client's connection. Ephemeral znodes it creates are
// removed when it dies, and its watches receive EventSessionExpired.
type Session struct {
	svc      *Service
	id       int64
	lastBeat time.Time
	closed   bool
	watches  map[<-chan Event]*watch // by the channel handed to the caller
}

// ID returns the session identifier (used in tests and diagnostics).
func (c *Session) ID() int64 { return c.id }

// Heartbeat refreshes the session lease. Spinnaker nodes send these
// periodically; a crashed node stops and its session expires.
func (c *Session) Heartbeat() error {
	c.svc.mu.Lock()
	defer c.svc.mu.Unlock()
	if c.closed {
		return ErrSessionClosed
	}
	c.lastBeat = time.Now()
	return nil
}

// Renew heartbeats the session and returns it or, once it has expired or
// been closed, a fresh session on the same service. Only a holder of no
// ephemeral znodes may use it: what the old session owned is gone.
func (c *Session) Renew() *Session {
	if c.Heartbeat() == nil {
		return c
	}
	return c.svc.Connect()
}

// Create creates a znode at path with the given data. With FlagSequential
// the final component gets a unique increasing suffix and the actual path
// is returned. Parents must exist (use EnsurePath). Creating an existing
// path fails with ErrNodeExists unless it is sequential.
func (c *Session) Create(path string, data []byte, flags Flags) (string, error) {
	c.svc.mu.Lock()
	if c.closed {
		c.svc.mu.Unlock()
		return "", ErrSessionClosed
	}
	parent, name, err := c.svc.parentAndName(path)
	if err != nil {
		c.svc.mu.Unlock()
		return "", err
	}
	var seqNo uint64
	if flags&FlagSequential != 0 {
		seqNo = parent.nextSeq
		parent.nextSeq++
		name = fmt.Sprintf("%s%010d", name, seqNo)
	}
	if _, ok := parent.children[name]; ok {
		c.svc.mu.Unlock()
		return "", fmt.Errorf("%w: %s", ErrNodeExists, path)
	}
	n := newZnode()
	n.version = c.svc.nextVersionLocked()
	n.data = append([]byte(nil), data...)
	n.seqNo = seqNo
	if flags&FlagEphemeral != 0 {
		n.owner = c.id
	}
	parent.children[name] = n

	actual := joinPath(parentPath(path), name)
	events := c.svc.collectEventsLocked(actual, EventCreated)
	c.svc.mu.Unlock()
	deliver(events)
	return actual, nil
}

// EnsurePath creates every missing component of path as a persistent znode.
func (c *Session) EnsurePath(path string) error {
	parts := split(path)
	cur := ""
	for _, p := range parts {
		cur = cur + "/" + p
		_, err := c.Create(cur, nil, 0)
		if err != nil && !errors.Is(err, ErrNodeExists) {
			return err
		}
	}
	return nil
}

// Delete removes the znode at path. Znodes with children cannot be deleted.
func (c *Session) Delete(path string) error {
	c.svc.mu.Lock()
	if c.closed {
		c.svc.mu.Unlock()
		return ErrSessionClosed
	}
	parent, name, err := c.svc.parentAndName(path)
	if err != nil {
		c.svc.mu.Unlock()
		return err
	}
	n, ok := parent.children[name]
	if !ok {
		c.svc.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoNode, path)
	}
	if len(n.children) > 0 {
		c.svc.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotEmpty, path)
	}
	delete(parent.children, name)
	events := c.svc.collectEventsLocked(path, EventDeleted)
	c.svc.mu.Unlock()
	deliver(events)
	return nil
}

// DeleteVersion removes the znode at path only if its version matches —
// the delete-side companion of CompareAndSet. Guarded deletes close
// get-then-delete races: releasing a leader claim must not remove a znode
// some other session re-created in between.
func (c *Session) DeleteVersion(path string, version uint64) error {
	c.svc.mu.Lock()
	if c.closed {
		c.svc.mu.Unlock()
		return ErrSessionClosed
	}
	parent, name, err := c.svc.parentAndName(path)
	if err != nil {
		c.svc.mu.Unlock()
		return err
	}
	n, ok := parent.children[name]
	if !ok {
		c.svc.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoNode, path)
	}
	if cur := n.version; cur != version {
		c.svc.mu.Unlock()
		return fmt.Errorf("%w: %s at %d, want %d", ErrBadVersion, path, cur, version)
	}
	if len(n.children) > 0 {
		c.svc.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotEmpty, path)
	}
	delete(parent.children, name)
	events := c.svc.collectEventsLocked(path, EventDeleted)
	c.svc.mu.Unlock()
	deliver(events)
	return nil
}

// DeleteRecursive removes path and everything under it (used to "clean up
// old state" at the start of leader election, Fig 7 line 1).
func (c *Session) DeleteRecursive(path string) error {
	c.svc.mu.Lock()
	if c.closed {
		c.svc.mu.Unlock()
		return ErrSessionClosed
	}
	parent, name, err := c.svc.parentAndName(path)
	if err != nil {
		c.svc.mu.Unlock()
		return err
	}
	if _, ok := parent.children[name]; !ok {
		c.svc.mu.Unlock()
		return nil
	}
	delete(parent.children, name)
	events := c.svc.collectEventsLocked(path, EventDeleted)
	c.svc.mu.Unlock()
	deliver(events)
	return nil
}

// Get returns the data stored at path.
func (c *Session) Get(path string) ([]byte, error) {
	c.svc.mu.Lock()
	defer c.svc.mu.Unlock()
	if c.closed {
		return nil, ErrSessionClosed
	}
	n, err := c.svc.lookup(path)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), n.data...), nil
}

// Set replaces the data at path.
func (c *Session) Set(path string, data []byte) error {
	c.svc.mu.Lock()
	if c.closed {
		c.svc.mu.Unlock()
		return ErrSessionClosed
	}
	n, err := c.svc.lookup(path)
	if err != nil {
		c.svc.mu.Unlock()
		return err
	}
	n.data = append([]byte(nil), data...)
	n.version = c.svc.nextVersionLocked()
	events := c.svc.collectEventsLocked(path, EventDataChanged)
	c.svc.mu.Unlock()
	deliver(events)
	return nil
}

// CompareAndSet replaces the data only if the current version matches,
// returning the new version. It is the primitive under atomic epoch
// increments.
func (c *Session) CompareAndSet(path string, data []byte, version uint64) (uint64, error) {
	c.svc.mu.Lock()
	if c.closed {
		c.svc.mu.Unlock()
		return 0, ErrSessionClosed
	}
	n, err := c.svc.lookup(path)
	if err != nil {
		c.svc.mu.Unlock()
		return 0, err
	}
	if cur := n.version; cur != version {
		c.svc.mu.Unlock()
		return 0, fmt.Errorf("%w: %s at %d, want %d", ErrBadVersion, path, cur, version)
	}
	n.data = append([]byte(nil), data...)
	n.version = c.svc.nextVersionLocked()
	newV := n.version
	events := c.svc.collectEventsLocked(path, EventDataChanged)
	c.svc.mu.Unlock()
	deliver(events)
	return newV, nil
}

// GetVersion returns the data and its version for CompareAndSet loops.
func (c *Session) GetVersion(path string) ([]byte, uint64, error) {
	c.svc.mu.Lock()
	defer c.svc.mu.Unlock()
	if c.closed {
		return nil, 0, ErrSessionClosed
	}
	n, err := c.svc.lookup(path)
	if err != nil {
		return nil, 0, err
	}
	return append([]byte(nil), n.data...), n.version, nil
}

// Exists reports whether a znode exists at path.
func (c *Session) Exists(path string) (bool, error) {
	c.svc.mu.Lock()
	defer c.svc.mu.Unlock()
	if c.closed {
		return false, ErrSessionClosed
	}
	_, err := c.svc.lookup(path)
	if errors.Is(err, ErrNoNode) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// ChildInfo describes one child of a znode.
type ChildInfo struct {
	Name string
	Data []byte
	// Seq is the sequence number assigned at creation for sequential
	// znodes; the election protocol uses it to break ties (Fig 7 line 6).
	Seq uint64
}

// Children returns the children of path sorted by name.
func (c *Session) Children(path string) ([]ChildInfo, error) {
	c.svc.mu.Lock()
	defer c.svc.mu.Unlock()
	if c.closed {
		return nil, ErrSessionClosed
	}
	n, err := c.svc.lookup(path)
	if err != nil {
		return nil, err
	}
	out := make([]ChildInfo, 0, len(n.children))
	for name, child := range n.children {
		out = append(out, ChildInfo{
			Name: name,
			Data: append([]byte(nil), child.data...),
			Seq:  child.seqNo,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Watch registers a one-shot watch on the znode at path: the returned
// channel receives exactly one Event when the node is created, deleted, or
// its data changes (or the session expires), then the watch is spent.
func (c *Session) Watch(path string) (<-chan Event, error) {
	return c.addWatch(path, false)
}

// WatchChildren registers a one-shot watch that fires when a child is
// created or deleted under path (Fig 7 line 5: "set a watch on
// /r/candidates").
func (c *Session) WatchChildren(path string) (<-chan Event, error) {
	return c.addWatch(path, true)
}

func (c *Session) addWatch(path string, children bool) (<-chan Event, error) {
	c.svc.mu.Lock()
	defer c.svc.mu.Unlock()
	if c.closed {
		return nil, ErrSessionClosed
	}
	w := &watch{path: "/" + strings.Trim(path, "/"), children: children, ch: make(chan Event, 1)}
	c.watches[w.ch] = w
	return w.ch, nil
}

// Unwatch cancels a watch that has not fired, given the channel Watch or
// WatchChildren returned. A waiter that gives up (a deadline, a different
// event) calls it so the watch does not sit in the session — scanned on
// every znode change — until its path next changes. Cancelling a nil, spent
// or already cancelled watch is a no-op.
func (c *Session) Unwatch(ch <-chan Event) {
	if ch == nil {
		return
	}
	c.svc.mu.Lock()
	delete(c.watches, ch)
	c.svc.mu.Unlock()
}

// pendingEvent pairs a spent watch channel with its notification.
type pendingEvent struct {
	ch chan Event
	ev Event
}

func deliver(events []pendingEvent) {
	for _, pe := range events {
		pe.ch <- pe.ev // buffered (size 1), one-shot: never blocks
	}
}

// collectEventsLocked finds watches triggered by a change at path, removes
// them (one-shot), and returns the notifications to deliver after the lock
// is released. Callers hold s.mu.
//
//spinnaker:locked(mu)
func (s *Service) collectEventsLocked(path string, typ EventType) []pendingEvent {
	norm := "/" + strings.Trim(path, "/")
	parent := parentPath(norm)
	var out []pendingEvent
	for _, sess := range s.sessions {
		for ch, w := range sess.watches {
			var fire bool
			if w.children {
				fire = (typ == EventCreated || typ == EventDeleted) && parent == w.path
			} else {
				fire = norm == w.path
			}
			if fire {
				out = append(out, pendingEvent{ch: w.ch, ev: Event{Type: typ, Path: norm}})
				delete(sess.watches, ch)
			}
		}
	}
	return out
}

func parentPath(path string) string {
	norm := "/" + strings.Trim(path, "/")
	i := strings.LastIndex(norm, "/")
	if i <= 0 {
		return "/"
	}
	return norm[:i]
}

func joinPath(parent, name string) string {
	if parent == "/" {
		return "/" + name
	}
	return parent + "/" + name
}

// Close ends the session gracefully: ephemerals are deleted and watches
// are cancelled without notification.
func (c *Session) Close() {
	c.endSession(false)
}

// Expire simulates session expiry as the service would detect for a crashed
// node: ephemerals are deleted and the session's own watches receive
// EventSessionExpired.
func (c *Session) Expire() {
	c.endSession(true)
}

func (c *Session) endSession(notify bool) {
	c.svc.mu.Lock()
	if c.closed {
		c.svc.mu.Unlock()
		return
	}
	c.closed = true
	delete(c.svc.sessions, c.id)

	// Delete this session's ephemerals, firing other sessions' watches.
	var events []pendingEvent
	var walk func(n *znode, path string)
	var doomed []string
	walk = func(n *znode, path string) {
		for name, child := range n.children {
			childPath := joinPath(path, name)
			if child.owner == c.id {
				doomed = append(doomed, childPath)
			}
			walk(child, childPath)
		}
	}
	walk(c.svc.root, "/")
	for _, path := range doomed {
		parent, name, err := c.svc.parentAndName(path)
		if err != nil {
			continue
		}
		delete(parent.children, name)
		events = append(events, c.svc.collectEventsLocked(path, EventDeleted)...)
	}
	if notify {
		for _, w := range c.watches {
			events = append(events, pendingEvent{ch: w.ch, ev: Event{Type: EventSessionExpired, Path: w.path}})
		}
	}
	c.watches = make(map[<-chan Event]*watch)
	c.svc.mu.Unlock()
	deliver(events)
}

// Closed reports whether the session has ended.
func (c *Session) Closed() bool {
	c.svc.mu.Lock()
	defer c.svc.mu.Unlock()
	return c.closed
}
