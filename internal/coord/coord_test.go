package coord

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestCreateGetSet(t *testing.T) {
	svc := NewService(0)
	c := svc.Connect()
	if err := c.EnsurePath("/r/0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("/r/0/leader", []byte("nodeA"), 0); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("/r/0/leader")
	if err != nil || string(got) != "nodeA" {
		t.Fatalf("Get = %q,%v", got, err)
	}
	if err := c.Set("/r/0/leader", []byte("nodeB")); err != nil {
		t.Fatal(err)
	}
	got, _ = c.Get("/r/0/leader")
	if string(got) != "nodeB" {
		t.Errorf("after Set Get = %q", got)
	}
}

func TestCreateErrors(t *testing.T) {
	svc := NewService(0)
	c := svc.Connect()
	if _, err := c.Create("/missing/parent/x", nil, 0); !errors.Is(err, ErrNoNode) {
		t.Errorf("create under missing parent: %v", err)
	}
	if _, err := c.Create("/a", nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("/a", nil, 0); !errors.Is(err, ErrNodeExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := c.Get("/nope"); !errors.Is(err, ErrNoNode) {
		t.Errorf("get missing: %v", err)
	}
}

func TestSequentialZnodes(t *testing.T) {
	svc := NewService(0)
	c := svc.Connect()
	if err := c.EnsurePath("/r/cand"); err != nil {
		t.Fatal(err)
	}
	p1, err := c.Create("/r/cand/n-", []byte("10"), FlagSequential)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Create("/r/cand/n-", []byte("20"), FlagSequential)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatalf("sequential znodes collided: %s", p1)
	}
	if p1 >= p2 {
		t.Errorf("sequence not increasing: %s then %s", p1, p2)
	}
	kids, err := c.Children("/r/cand")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 2 {
		t.Fatalf("children = %d", len(kids))
	}
	if kids[0].Seq >= kids[1].Seq {
		t.Errorf("child Seq not increasing: %d, %d", kids[0].Seq, kids[1].Seq)
	}
}

func TestEphemeralDeletedOnExpire(t *testing.T) {
	svc := NewService(0)
	owner := svc.Connect()
	other := svc.Connect()
	if err := owner.EnsurePath("/r"); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Create("/r/leader", []byte("me"), FlagEphemeral); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Create("/r/persist", []byte("keep"), 0); err != nil {
		t.Fatal(err)
	}
	owner.Expire()

	if ok, _ := other.Exists("/r/leader"); ok {
		t.Error("ephemeral survived session expiry")
	}
	if ok, _ := other.Exists("/r/persist"); !ok {
		t.Error("persistent znode deleted on expiry")
	}
	if _, err := owner.Get("/r/persist"); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("expired session usable: %v", err)
	}
}

func TestWatchFiresOnce(t *testing.T) {
	svc := NewService(0)
	a := svc.Connect()
	b := svc.Connect()
	if err := a.EnsurePath("/r"); err != nil {
		t.Fatal(err)
	}
	ch, err := b.Watch("/r/leader")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Create("/r/leader", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		if ev.Type != EventCreated || ev.Path != "/r/leader" {
			t.Errorf("event = %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("watch did not fire")
	}
	// One-shot: a second change does not fire again.
	if err := a.Set("/r/leader", []byte("y")); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		t.Errorf("spent watch fired again: %+v", ev)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestWatchDataAndDelete(t *testing.T) {
	svc := NewService(0)
	c := svc.Connect()
	if err := c.EnsurePath("/n"); err != nil {
		t.Fatal(err)
	}
	ch, _ := c.Watch("/n")
	if err := c.Set("/n", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if ev := <-ch; ev.Type != EventDataChanged {
		t.Errorf("event = %+v, want dataChanged", ev)
	}
	ch2, _ := c.Watch("/n")
	if err := c.Delete("/n"); err != nil {
		t.Fatal(err)
	}
	if ev := <-ch2; ev.Type != EventDeleted {
		t.Errorf("event = %+v, want deleted", ev)
	}
}

func TestWatchChildren(t *testing.T) {
	svc := NewService(0)
	a := svc.Connect()
	b := svc.Connect()
	if err := a.EnsurePath("/r/candidates"); err != nil {
		t.Fatal(err)
	}
	ch, err := b.WatchChildren("/r/candidates")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Create("/r/candidates/c-", []byte("5"), FlagSequential|FlagEphemeral); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		if ev.Type != EventCreated {
			t.Errorf("event = %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("children watch did not fire")
	}
}

func TestWatchChildrenFiresOnEphemeralCleanup(t *testing.T) {
	// The election protocol depends on this: when a candidate dies, other
	// cohort members watching /r/candidates must be notified.
	svc := NewService(0)
	a := svc.Connect()
	b := svc.Connect()
	if err := a.EnsurePath("/r/candidates"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Create("/r/candidates/c-", []byte("7"), FlagSequential|FlagEphemeral); err != nil {
		t.Fatal(err)
	}
	ch, _ := b.WatchChildren("/r/candidates")
	a.Expire()
	select {
	case ev := <-ch:
		if ev.Type != EventDeleted {
			t.Errorf("event = %+v, want deleted", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("watch did not fire on ephemeral cleanup")
	}
}

func TestSessionExpiredNotifiesOwnWatches(t *testing.T) {
	svc := NewService(0)
	c := svc.Connect()
	if err := c.EnsurePath("/x"); err != nil {
		t.Fatal(err)
	}
	ch, _ := c.Watch("/x")
	c.Expire()
	select {
	case ev := <-ch:
		if ev.Type != EventSessionExpired {
			t.Errorf("event = %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no expiry notification")
	}
}

func TestDeleteNonEmptyFails(t *testing.T) {
	svc := NewService(0)
	c := svc.Connect()
	if err := c.EnsurePath("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("/a"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("delete of non-empty: %v", err)
	}
	if err := c.DeleteRecursive("/a"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := c.Exists("/a"); ok {
		t.Error("recursive delete left node")
	}
	// Recursive delete of a missing path is a no-op.
	if err := c.DeleteRecursive("/a"); err != nil {
		t.Errorf("recursive delete of missing: %v", err)
	}
}

func TestCompareAndSet(t *testing.T) {
	svc := NewService(0)
	c := svc.Connect()
	if err := c.EnsurePath("/epoch"); err != nil {
		t.Fatal(err)
	}
	_, v0, err := c.GetVersion("/epoch")
	if err != nil {
		t.Fatal(err)
	}
	v1, err := c.CompareAndSet("/epoch", []byte("1"), v0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CompareAndSet("/epoch", []byte("2"), v0); !errors.Is(err, ErrBadVersion) {
		t.Errorf("stale CAS: %v", err)
	}
	if _, err := c.CompareAndSet("/epoch", []byte("2"), v1); err != nil {
		t.Errorf("fresh CAS: %v", err)
	}
}

func TestCompareAndSetConcurrentIncrements(t *testing.T) {
	// Many sessions racing CAS-increment must produce exactly N bumps.
	svc := NewService(0)
	setup := svc.Connect()
	if err := setup.EnsurePath("/epoch"); err != nil {
		t.Fatal(err)
	}
	if err := setup.Set("/epoch", []byte{0}); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := svc.Connect()
			for {
				data, v, err := c.GetVersion("/epoch")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.CompareAndSet("/epoch", []byte{data[0] + 1}, v); err == nil {
					return
				} else if !errors.Is(err, ErrBadVersion) {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	data, _ := setup.Get("/epoch")
	if data[0] != workers {
		t.Errorf("epoch = %d, want %d", data[0], workers)
	}
}

func TestSessionTimeoutExpiry(t *testing.T) {
	svc := NewService(50 * time.Millisecond)
	defer svc.Stop()
	quiet := svc.Connect()
	beating := svc.Connect()
	if err := quiet.EnsurePath("/r"); err != nil {
		t.Fatal(err)
	}
	if _, err := quiet.Create("/r/e1", nil, FlagEphemeral); err != nil {
		t.Fatal(err)
	}
	if _, err := beating.Create("/r/e2", nil, FlagEphemeral); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if err := beating.Heartbeat(); err != nil {
			t.Fatal(err)
		}
		if quiet.Closed() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !quiet.Closed() {
		t.Fatal("silent session never expired")
	}
	if ok, _ := beating.Exists("/r/e1"); ok {
		t.Error("silent session's ephemeral survived")
	}
	if ok, _ := beating.Exists("/r/e2"); !ok {
		t.Error("heartbeating session's ephemeral was deleted")
	}
}

func TestChildrenSortedAndDataIsolated(t *testing.T) {
	svc := NewService(0)
	c := svc.Connect()
	if err := c.EnsurePath("/p"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zz", "aa", "mm"} {
		if _, err := c.Create("/p/"+name, []byte(name), 0); err != nil {
			t.Fatal(err)
		}
	}
	kids, err := c.Children("/p")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 3 || kids[0].Name != "aa" || kids[2].Name != "zz" {
		t.Fatalf("children = %+v", kids)
	}
	kids[0].Data[0] = 'X' // mutating the copy must not affect the store
	again, _ := c.Children("/p")
	if string(again[0].Data) != "aa" {
		t.Error("Children aliased internal data")
	}
}

func TestManySessionsManyZnodes(t *testing.T) {
	svc := NewService(0)
	setup := svc.Connect()
	if err := setup.EnsurePath("/ranges"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := svc.Connect()
			path := fmt.Sprintf("/ranges/r%d", i)
			if err := c.EnsurePath(path); err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 20; j++ {
				if _, err := c.Create(fmt.Sprintf("%s/item-", path), nil, FlagSequential); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 10; i++ {
		kids, err := setup.Children(fmt.Sprintf("/ranges/r%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if len(kids) != 20 {
			t.Errorf("range %d has %d items", i, len(kids))
		}
	}
}

func TestEventTypeString(t *testing.T) {
	for typ, want := range map[EventType]string{
		EventCreated: "created", EventDeleted: "deleted",
		EventDataChanged: "dataChanged", EventChildrenChanged: "childrenChanged",
		EventSessionExpired: "sessionExpired", EventType(77): "EventType(77)",
	} {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}

func TestDeleteVersionGuard(t *testing.T) {
	svc := NewService(0)
	defer svc.Stop()
	c := svc.Connect()
	defer c.Close()

	if _, err := c.Create("/claim", []byte("a"), 0); err != nil {
		t.Fatal(err)
	}
	_, v1, err := c.GetVersion("/claim")
	if err != nil {
		t.Fatal(err)
	}
	// A delete guarded by a stale version must fail after the data moved.
	if err := c.Set("/claim", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteVersion("/claim", v1); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("stale-version delete: %v, want ErrBadVersion", err)
	}
	// Re-creation after delete must not reuse a version, so a guard held
	// across delete+recreate can never remove the new incarnation.
	_, v2, err := c.GetVersion("/claim")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteVersion("/claim", v2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("/claim", []byte("c"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteVersion("/claim", v2); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("delete of re-created znode with old version: %v, want ErrBadVersion", err)
	}
	if ok, _ := c.Exists("/claim"); !ok {
		t.Fatal("guarded delete removed the re-created znode")
	}
}

// TestUnwatchCancelsTimedOutWaits: a waiter that gives up cancels its watch,
// so a thousand timed-out waits leave the session holding exactly the
// watches it held before — and a cancelled watch never fires.
func TestUnwatchCancelsTimedOutWaits(t *testing.T) {
	svc := NewService(0)
	c := svc.Connect()
	defer c.Close()
	if err := c.EnsurePath("/r/0"); err != nil {
		t.Fatal(err)
	}
	kept, err := c.Watch("/r/0/leader")
	if err != nil {
		t.Fatal(err)
	}
	watches := func() int {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return len(c.watches)
	}
	before := watches()
	var cancelled <-chan Event
	for i := 0; i < 1000; i++ {
		w, err := c.Watch("/r/0/leader")
		if err != nil {
			t.Fatal(err)
		}
		select {
		case ev := <-w:
			t.Fatalf("watch fired with nothing changed: %+v", ev)
		default: // the waiter's deadline
		}
		c.Unwatch(w)
		cancelled = w
	}
	c.Unwatch(nil)
	if after := watches(); after != before {
		t.Fatalf("session holds %d watches after 1000 cancelled waits, want %d", after, before)
	}
	if _, err := c.Create("/r/0/leader", []byte("n"), FlagEphemeral); err != nil {
		t.Fatal(err)
	}
	if ev := <-kept; ev.Type != EventCreated {
		t.Errorf("kept watch got %+v", ev)
	}
	select {
	case ev := <-cancelled:
		t.Errorf("cancelled watch fired: %+v", ev)
	default:
	}
	c.Unwatch(kept) // spent: a no-op
}
