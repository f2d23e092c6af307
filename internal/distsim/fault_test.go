package distsim_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/distsim"
)

func TestFaultPlanValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
		ok   bool
	}{
		{"empty", `{}`, true},
		{"lossy link", `{"seed":7,"links":[{"from":"fe-*","drop":0.2}]}`, true},
		{"bad probability", `{"links":[{"drop":1.5}]}`, false},
		{"negative delay", `{"links":[{"maxExtraDelayMs":-3}]}`, false},
		{"empty partition", `{"partitions":[{"agents":[],"fromIter":1}]}`, false},
		{"heal before start", `{"partitions":[{"agents":["dc-0"],"fromIter":5,"toIter":3}]}`, false},
		{"crash without agent", `{"crashes":[{"agent":"","atIter":4}]}`, false},
		{"negative crash iter", `{"crashes":[{"agent":"dc-0","atIter":-1}]}`, false},
		{"full plan", `{"seed":1,"links":[{"drop":0.1,"dup":0.05,"delayProb":0.3,"maxExtraDelayMs":2}],
			"partitions":[{"agents":["dc-1"],"fromIter":10,"toIter":12}],
			"crashes":[{"agent":"fe-2","atIter":40}]}`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := distsim.ParseFaultPlan([]byte(tc.json))
			if (err == nil) != tc.ok {
				t.Fatalf("ParseFaultPlan(%s) error = %v, want ok=%v", tc.json, err, tc.ok)
			}
		})
	}
}

// collectFaulted pushes iters labelled messages from a to b through a
// fresh FaultTransport built from plan and returns which iterations
// arrived (in order) plus the final fault counters.
func collectFaulted(t *testing.T, plan *distsim.FaultPlan, iters int) ([]int, distsim.FaultStats) {
	t.Helper()
	inner := distsim.NewChanTransport([]string{"a", "b"}, distsim.ChanOptions{})
	ft, err := distsim.NewFaultTransport(inner, plan)
	if err != nil {
		t.Fatal(err)
	}
	inbox, err := ft.Inbox("b")
	if err != nil {
		t.Fatal(err)
	}
	// A canceled context makes Recv take only what is already queued.
	queued, cancel := context.WithCancel(context.Background())
	cancel()
	var got []int
	for k := 1; k <= iters; k++ {
		if err := ft.Send("b", distsim.Message{From: "a", Kind: distsim.KindReport, Iter: k}); err != nil {
			t.Fatal(err)
		}
		for {
			m, err := inbox.Recv(queued)
			if err != nil {
				break
			}
			got = append(got, m.Iter)
		}
	}
	st := ft.Stats()
	if err := ft.Close(); err != nil {
		t.Fatal(err)
	}
	return got, st
}

func TestFaultDropIsDeterministicAcrossRuns(t *testing.T) {
	plan := &distsim.FaultPlan{Seed: 42, Links: []distsim.LinkFault{{DropProb: 0.5}}}
	first, stFirst := collectFaulted(t, plan, 64)
	if stFirst.Dropped == 0 || len(first) == 64 {
		t.Fatalf("50%% loss dropped nothing: delivered %d, stats %+v", len(first), stFirst)
	}
	second, stSecond := collectFaulted(t, plan, 64)
	if fmt.Sprint(first) != fmt.Sprint(second) || stFirst != stSecond {
		t.Fatalf("same-seed replay diverged:\n  %v %+v\n  %v %+v", first, stFirst, second, stSecond)
	}
	other, _ := collectFaulted(t, &distsim.FaultPlan{Seed: 43, Links: plan.Links}, 64)
	if fmt.Sprint(first) == fmt.Sprint(other) {
		t.Fatal("different seeds produced the identical drop pattern")
	}
}

func TestFaultDuplicateDeliversTwice(t *testing.T) {
	plan := &distsim.FaultPlan{Seed: 1, Links: []distsim.LinkFault{{DupProb: 1}}}
	got, st := collectFaulted(t, plan, 8)
	if len(got) != 16 {
		t.Fatalf("DupProb 1 delivered %d copies of 8 sends, want 16", len(got))
	}
	if st.Duplicated != 8 {
		t.Fatalf("Duplicated = %d, want 8", st.Duplicated)
	}
}

func TestFaultPartitionWindow(t *testing.T) {
	plan := &distsim.FaultPlan{
		Partitions: []distsim.Partition{{Agents: []string{"a"}, FromIter: 2, ToIter: 4}},
	}
	got, st := collectFaulted(t, plan, 5)
	if want := "[1 4 5]"; fmt.Sprint(got) != want {
		t.Fatalf("partition [2,4) delivered %v, want %s", got, want)
	}
	if st.PartitionDropped != 2 {
		t.Fatalf("PartitionDropped = %d, want 2", st.PartitionDropped)
	}
}

func TestFaultCrashSilencesAgentAndClosesInbox(t *testing.T) {
	inner := distsim.NewChanTransport([]string{"a", "b"}, distsim.ChanOptions{})
	ft, err := distsim.NewFaultTransport(inner, &distsim.FaultPlan{
		Crashes: []distsim.Crash{{Agent: "b", AtIter: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ft.Close() }()
	inbox, err := ft.Inbox("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := ft.Send("b", distsim.Message{From: "a", Kind: distsim.KindRouting, Iter: 1}); err != nil {
		t.Fatal(err)
	}
	m, err := recvWithin(inbox, 2*time.Second)
	if err != nil {
		t.Fatalf("pre-crash message never arrived: %v", err)
	}
	if m.Iter != 1 {
		t.Fatalf("pre-crash delivery iter = %d, want 1", m.Iter)
	}
	if ft.Crashed("b") {
		t.Fatal("crash activated before AtIter")
	}
	// The first message at or past AtIter activates the crash: it is
	// dropped and the victim's inbox closes.
	if err := ft.Send("b", distsim.Message{From: "a", Kind: distsim.KindRouting, Iter: 3}); err != nil {
		t.Fatal(err)
	}
	switch m, err := recvWithin(inbox, 2*time.Second); {
	case err == nil:
		t.Fatalf("post-crash delivery leaked: %+v", m)
	case !errors.Is(err, distsim.ErrClosed):
		t.Fatal("victim inbox not closed after crash")
	}
	if !ft.Crashed("b") {
		t.Fatal("Crashed(b) = false after activation")
	}
	if st := ft.Stats(); st.CrashDropped == 0 {
		t.Fatalf("CrashDropped = 0, want > 0 (stats %+v)", st)
	}
}

// TestFaultZeroPlanPassthroughAllocFree pins the acceptance criterion that
// a no-fault chaos run costs nothing: Send through a zero-plan wrapper
// must add zero allocations over the bare transport underneath.
func TestFaultZeroPlanPassthroughAllocFree(t *testing.T) {
	msg := distsim.Message{From: "a", Kind: distsim.KindReport, Iter: 1}
	sendAllocs := func(tr distsim.Transport) float64 {
		t.Helper()
		inbox, err := tr.Inbox("a")
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			if err := tr.Send("a", msg); err != nil {
				t.Fatal(err)
			}
			if _, err := inbox.Recv(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare := distsim.NewChanTransport([]string{"a"}, distsim.ChanOptions{})
	defer func() { _ = bare.Close() }()
	baseline := sendAllocs(bare)

	inner := distsim.NewChanTransport([]string{"a"}, distsim.ChanOptions{})
	ft, err := distsim.NewFaultTransport(inner, &distsim.FaultPlan{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ft.Close() }()
	if wrapped := sendAllocs(ft); wrapped != baseline {
		t.Fatalf("zero-plan FaultTransport.Send allocates %.1f allocs/op, bare transport %.1f — the passthrough must add none", wrapped, baseline)
	}
}

// TestFaultChanInFlightGaugeDrainsOnClose pins the telemetry fix: delayed
// deliveries cancelled by Close must decrement the in-flight gauge, so a
// torn-down transport always reads zero in flight.
func TestFaultChanInFlightGaugeDrainsOnClose(t *testing.T) {
	tr := distsim.NewChanTransport([]string{"a"}, distsim.ChanOptions{
		Seed:            1,
		LossProb:        1, // every send takes the delayed-retransmit path
		RetransmitDelay: 10 * time.Second,
	})
	for k := 0; k < 8; k++ {
		if err := tr.Send("a", distsim.Message{From: "a", Kind: distsim.KindReport, Iter: k}); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.InFlight(); got != 8 {
		t.Fatalf("InFlight = %d with 8 delayed deliveries queued, want 8", got)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tr.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after Close, want 0 (cancelled deliveries must decrement the gauge)", got)
	}
}

func TestFaultChanInFlightGaugeDrainsOnDelivery(t *testing.T) {
	tr := distsim.NewChanTransport([]string{"a"}, distsim.ChanOptions{})
	defer func() { _ = tr.Close() }()
	inbox, err := tr.Inbox("a")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if err := tr.Send("a", distsim.Message{From: "a", Kind: distsim.KindReport, Iter: k}); err != nil {
			t.Fatal(err)
		}
		if _, err := recvWithin(inbox, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after full delivery, want 0", got)
	}
}
