package main

import (
	"io"
	"sync"
	"testing"
	"time"
)

func TestOpenLoopTimesLatencyFromDueTime(t *testing.T) {
	const stall = 40 * time.Millisecond
	var mu sync.Mutex
	lat := make(map[int]time.Duration)
	// The generator stalls before request 1, so it is sent late; the send
	// itself returns at once. Its latency must include the stall.
	calls := 0 // sleepUntil runs on the generator's goroutine only
	openLoop(time.Now(), 100, 3, func(due time.Time) {
		if calls == 1 {
			time.Sleep(time.Until(due) + stall)
		} else {
			sleepUntil(due)
		}
		calls++
	}, func(i int, due time.Time) {
		mu.Lock()
		lat[i] = time.Since(due)
		mu.Unlock()
	})
	if lat[1] < stall {
		t.Fatalf("late request latency %v, want at least the %v stall (timed from send, not due time?)", lat[1], stall)
	}
}

func TestOpenLoopDoesNotWaitForEarlierRequests(t *testing.T) {
	release := make(chan struct{})
	sent := make(chan int, 3)
	go func() {
		// Request 0 blocks until request 2 has been sent.
		for i := 0; i < 3; i++ {
			if <-sent == 2 {
				close(release)
			}
		}
	}()
	done := make(chan struct{})
	go func() {
		openLoop(time.Now(), 200, 3, sleepUntil, func(i int, due time.Time) {
			sent <- i
			if i == 0 {
				<-release
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("open loop waited for a blocked request before sending the next")
	}
}

func TestColdRecordLatencyAndLag(t *testing.T) {
	due := time.Unix(100, 0)
	r := coldRecord{due: due, op: coldOp{sent: due.Add(30 * time.Millisecond), end: due.Add(75 * time.Millisecond)}}
	if r.latency() != 75*time.Millisecond {
		t.Errorf("latency %v, want 75ms from the due time", r.latency())
	}
	if r.lag() != 30*time.Millisecond {
		t.Errorf("lag %v, want 30ms", r.lag())
	}
}

func TestBenchMainRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-hot", "--trace", "2"},
		{"--workload", "serve-hot", "--seconds", "0"},
	} {
		if code := benchMain(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("benchMain(%v) exited 0", args)
		}
	}
}
