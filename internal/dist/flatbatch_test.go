package dist

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/wire"
)

// TestFlatEnvelopeRoundTrip pins the frozen field order of every flat
// envelope: a fully populated value must decode back DeepEqual. A field
// added to an envelope without extending its Marshal/UnmarshalFlat pair
// shows up here as a mismatch.
func TestFlatEnvelopeRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		in   wire.FlatMarshaler
		out  wire.FlatUnmarshaler
	}{
		{"donorArgs", donorArgs{Donor: "d-1"}, &donorArgs{}},
		{"waitTaskArgs", waitTaskArgs{Donor: "d-1", MaxWaitNs: int64(45 * time.Second), MaxBatch: 8}, &waitTaskArgs{}},
		{"TaskReply", TaskReply{
			HasTask:      true,
			ProblemID:    "p-1",
			Unit:         Unit{ID: 7, Algorithm: "sum/v1", Payload: []byte("range"), Cost: 3},
			BulkKey:      "p-1/7",
			WaitHintNs:   int64(time.Millisecond),
			Epoch:        2,
			SharedDigest: "sha256:aa",
			Batch: []BatchTask{
				{ProblemID: "p-1", Unit: Unit{ID: 8, Algorithm: "sum/v1", Payload: []byte("next"), Cost: 1}, Epoch: 2, SharedDigest: "sha256:aa"},
				{ProblemID: "p-1", Unit: Unit{ID: 9, Algorithm: "sum/v1", Cost: 1}, BulkKey: "p-1/9", Epoch: 2},
			},
		}, &TaskReply{}},
		{"TaskReply/empty", TaskReply{WaitHintNs: 5}, &TaskReply{}},
		{"ResultArgs", ResultArgs{Donor: "d-1", ProblemID: "p-1", UnitID: 7, Payload: []byte("out"), ElapsedNs: 12345, Epoch: 2}, &ResultArgs{}},
		{"failureArgs", failureArgs{Donor: "d-1", ProblemID: "p-1", UnitID: 7, Reason: "injected", Transport: true, Epoch: 2}, &failureArgs{}},
		{"cancelReply", cancelReply{Notices: []CancelNotice{
			{ProblemID: "p-1", Epoch: 2, UnitID: 7},
			{ProblemID: "p-2", Epoch: 1, UnitID: -1},
		}}, &cancelReply{}},
		{"handshakeReply", handshakeReply{BulkAddr: "127.0.0.1:7071"}, &handshakeReply{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			frame := wire.MarshalFlatMessage(c.in)
			d := wire.NewDecoder(frame)
			c.out.UnmarshalFlat(d)
			if err := d.Err(); err != nil {
				t.Fatalf("decode: %v", err)
			}
			got := reflect.ValueOf(c.out).Elem().Interface()
			if !reflect.DeepEqual(got, c.in) {
				t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, c.in)
			}
		})
	}
}

// TestBatchedWaitTasksOverWire proves multi-unit batches actually cross
// the wire: one WaitTasks call against a stocked server returns several
// units, each individually lease-accounted; failing them back requeues
// every one, and a batching donor then drains the problem.
func TestBatchedWaitTasksOverWire(t *testing.T) {
	registerEcho(t)
	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(netOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "batch-wire", DM: newEchoDM(12), SharedData: []byte("batch blob")}); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.RPCAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tasks, _, err := cl.WaitTasks(bg, "batcher", time.Second, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 8 {
		t.Fatalf("WaitTasks returned %d units, want a full batch of 8", len(tasks))
	}
	seen := map[int64]bool{}
	for _, task := range tasks {
		if task.ProblemID != "batch-wire" || seen[task.Unit.ID] {
			t.Fatalf("bad batch entry %+v (duplicate or wrong problem)", task)
		}
		seen[task.Unit.ID] = true
	}
	if st, _ := srv.Stats(bg, "batch-wire"); st.Dispatched != 8 {
		t.Errorf("dispatched = %d after one batched WaitTasks, want 8 (every entry lease-accounted)", st.Dispatched)
	}
	// Hand every leased unit back so the draining donor below does not
	// have to wait out the (hour-long) test lease.
	for _, task := range tasks {
		if err := cl.ReportFailure(bg, "batcher", task.ProblemID, task.Unit.ID, "handed back"); err != nil {
			t.Fatal(err)
		}
	}

	d := newTestDonor(cl, DonorOptions{Name: "batch-drain", Logf: t.Logf})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = d.Run(bg) }()
	out, err := srv.Wait(bg, "batch-wire")
	d.Stop()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte("batch blob")) {
		t.Errorf("batched drain result = %q", out)
	}
}

// TestWaitTasksManyParkedDonorsOneUnit is the batched variant of the
// 16-donor herd test: with batching enabled a single unit must still be
// dispatched exactly once across every parked WaitTasks call.
func TestWaitTasksManyParkedDonorsOneUnit(t *testing.T) {
	srv := newTestServer(ServerOptions{Policy: sched.Fixed{Size: 1000}, Lease: time.Hour, ExpiryScan: time.Hour})
	defer srv.Close()

	const parked = 16
	type batchResult struct {
		tasks []*Task
		err   error
	}
	got := make(chan batchResult, parked)
	for i := 0; i < parked; i++ {
		name := fmt.Sprintf("bherd-%d", i)
		go func() {
			tasks, _, err := srv.WaitTasks(bg, name, 400*time.Millisecond, 8)
			got <- batchResult{tasks, err}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	if err := srv.Submit(bg, &Problem{ID: "bherd", DM: newSumDM(100)}); err != nil {
		t.Fatal(err)
	}

	units := 0
	for i := 0; i < parked; i++ {
		r := <-got
		if r.err != nil {
			t.Fatalf("herd WaitTasks err = %v", r.err)
		}
		units += len(r.tasks)
	}
	if units != 1 {
		t.Errorf("single unit dispatched %d times across the batched herd, want exactly 1", units)
	}
}

// TestWaitTasksWakesOnLeaseExpiry is the batched variant of the
// lease-expiry wake test: donor A leases the only unit and goes silent;
// the expiry sweep requeues it and must wake a donor parked in the
// batched WaitTasks path.
func TestWaitTasksWakesOnLeaseExpiry(t *testing.T) {
	srv := newTestServer(ServerOptions{
		Policy:     sched.Fixed{Size: 1000},
		Lease:      50 * time.Millisecond,
		ExpiryScan: 20 * time.Millisecond,
	})
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "bwake-expiry", DM: newSumDM(100)}); err != nil {
		t.Fatal(err)
	}
	task, _, err := srv.RequestTask(bg, "a")
	if err != nil || task == nil {
		t.Fatalf("no task for donor a: %v", err)
	}

	type batchResult struct {
		tasks []*Task
		err   error
	}
	got := make(chan batchResult, 1)
	go func() {
		tasks, _, err := srv.WaitTasks(bg, "b", 10*time.Second, 8)
		got <- batchResult{tasks, err}
	}()
	select {
	case r := <-got:
		if r.err != nil || len(r.tasks) != 1 {
			t.Fatalf("batched WaitTasks after lease expiry = %d tasks, err %v; want the one requeued unit", len(r.tasks), r.err)
		}
		if r.tasks[0].Unit.ID != task.Unit.ID {
			t.Errorf("woke with unit %d, want requeued unit %d", r.tasks[0].Unit.ID, task.Unit.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batched WaitTasks still parked 5s after the lease expired")
	}
}
