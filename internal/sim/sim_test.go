package sim

import (
	"testing"
	"time"
)

func TestSpinnakerClusterLifecycle(t *testing.T) {
	CheckGoroutineLeaks(t)
	sc, err := NewSpinnakerCluster(Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()
	if err := sc.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	c := sc.NewClient()
	if _, err := c.Put(sc.Key(42), "col", []byte("value")); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Get(sc.Key(42), "col", true)
	if err != nil || string(got) != "value" {
		t.Fatalf("Get = %q,%v", got, err)
	}
}

func TestSpinnakerClusterCrashRestart(t *testing.T) {
	CheckGoroutineLeaks(t)
	sc, err := NewSpinnakerCluster(Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()
	if err := sc.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	c := sc.NewClient()
	if _, err := c.Put(sc.Key(1), "c", []byte("v")); err != nil {
		t.Fatal(err)
	}
	leader := sc.LeaderOf(sc.Layout.RangeOf(sc.Key(1)))
	if err := sc.CrashNode(leader); err != nil {
		t.Fatal(err)
	}
	// The value survives the leader crash.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _, err := c.Get(sc.Key(1), "c", true)
		if err == nil && string(got) == "v" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("value unreadable after failover: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := sc.RestartNode(leader); err != nil {
		t.Fatal(err)
	}
	if err := sc.CrashNode(leader); err != nil {
		t.Fatal(err) // restart registered it again
	}
}
