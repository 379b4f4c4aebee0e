// Root benchmark harness: the paper's figures plus the curves the
// end-to-end ledger in bench/ does not draw. Workload throughput, layer
// costs and before/after comparisons live in bench/ (bench/README.md).
//
//	BenchmarkFigure1               DSEARCH speedup curve (83 homogeneous donors)
//	BenchmarkFigure2               DPRml speedup curve (50 taxa, 6 instances)
//	BenchmarkFigure2SingleInstance the single-instance ablation (paper §3.2 prose)
//	BenchmarkAdaptiveVsFixed       scheduling-policy ablation (paper §3.1 prose)
//	BenchmarkChurn                 fault tolerance under donor churn (§2 design)
//	BenchmarkDiurnal               multi-day workload on a day/night lab
//	BenchmarkBulkTransfer          RPC vs raw-socket bulk data (§2.2 design)
//	BenchmarkCoordinatorSharding   RequestTask/SubmitResult throughput vs problem count
//	BenchmarkDispatchSkipsContended dispatch latency with hot problems locked
//	BenchmarkDispatchLatency       idle-donor wakeup latency and idle control QPS
//	                               of WaitTask long-poll dispatch
//	BenchmarkSharedBlobDedup       bulk bytes fetched for 16 problems sharing
//	                               one alignment
//	BenchmarkSwarmMakespan         1024-donor swarm drain on a straggler-heavy
//	                               fleet, Fixed vs Adaptive vs Adaptive+speculation
//
// Speedup/efficiency numbers are attached to the bench output via
// b.ReportMetric; run with -v to also print the full series as tables (the
// text analogue of the paper's figures — same output as cmd/speedup).
package repro

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"testing"
	"time"

	"net"
	"net/rpc"

	"repro/internal/dist"
	"repro/internal/figures"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/swarm"
	"repro/internal/wire"
)

func reportCurve(b *testing.B, title string, pts []simnet.SpeedupPoint) {
	b.Helper()
	last := pts[len(pts)-1]
	b.ReportMetric(last.Speedup, "speedup@max")
	b.ReportMetric(last.Efficiency, "efficiency@max")
	if testing.Verbose() {
		figures.WriteTable(os.Stdout, title, pts)
	}
}

// BenchmarkFigure1 regenerates the DSEARCH speedup series of Figure 1.
func BenchmarkFigure1(b *testing.B) {
	cfg := figures.DefaultFigure1()
	var pts []simnet.SpeedupPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = figures.Figure1(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCurve(b, "Figure 1: DSEARCH speedup", pts)
}

// BenchmarkFigure2 regenerates the DPRml 6-instance speedup series of
// Figure 2.
func BenchmarkFigure2(b *testing.B) {
	cfg := figures.DefaultFigure2()
	var pts []simnet.SpeedupPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = figures.Figure2(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCurve(b, "Figure 2: DPRml speedup, 6 instances", pts)
}

// BenchmarkFigure2SingleInstance runs the ablation behind the paper's
// remark that a single staged instance leaves clients idle.
func BenchmarkFigure2SingleInstance(b *testing.B) {
	cfg := figures.DefaultFigure2()
	cfg.Instances = 1
	var pts []simnet.SpeedupPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = figures.Figure2(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCurve(b, "Figure 2 ablation: DPRml speedup, single instance", pts)
}

// BenchmarkAdaptiveVsFixed compares unit-sizing policies on a heterogeneous
// pool (the design choice §3.1 describes as "dynamically controlled ...
// to match the processing abilities of the current set of donor machines").
func BenchmarkAdaptiveVsFixed(b *testing.B) {
	const donors, totalCost, seed = 60, 500_000, 3
	for _, p := range []sched.Policy{
		sched.Adaptive{Target: 30 * time.Second, Bootstrap: 1000, Min: 100},
		sched.Fixed{Size: 20000},
		sched.GSS{K: 1, Min: 100},
		sched.Factoring{Min: 100},
	} {
		b.Run(p.Name(), func(b *testing.B) {
			var m *simnet.Metrics
			var err error
			for i := 0; i < b.N; i++ {
				cfg := simnet.Config{
					Donors:         simnet.HeterogeneousLab(donors, seed),
					Policy:         p,
					ServerOverhead: 3 * time.Millisecond,
					Lease:          5 * time.Minute,
					Seed:           seed,
				}
				m, err = simnet.Run(cfg, simnet.NewDivisibleWorkload(totalCost, 40, 4096))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.Makespan.Seconds(), "makespan-s")
			b.ReportMetric(m.Efficiency, "efficiency")
		})
	}
}

// BenchmarkChurn measures the lease/reissue fault-tolerance path: a third
// of the donors silently vanish mid-run (powered-off lab machines), and the
// workload must still complete.
func BenchmarkChurn(b *testing.B) {
	const donors, totalCost, seed = 45, 150_000, 5
	var m *simnet.Metrics
	for i := 0; i < b.N; i++ {
		specs := simnet.Uniform(donors, 1.0, 0.1, 2*time.Millisecond, 100e6/8)
		for j := range specs {
			if j%3 == 0 {
				specs[j].LeaveAt = time.Duration(10+j) * time.Minute
			}
		}
		cfg := simnet.Config{
			Donors:         specs,
			Policy:         sched.Adaptive{Target: 30 * time.Second, Bootstrap: 1000, Min: 100},
			ServerOverhead: 3 * time.Millisecond,
			Lease:          2 * time.Minute,
			Seed:           seed,
		}
		var err error
		m, err = simnet.Run(cfg, simnet.NewDivisibleWorkload(totalCost, 40, 4096))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.Makespan.Seconds(), "makespan-s")
	b.ReportMetric(float64(m.UnitsLost), "units-lost")
}

// BenchmarkDiurnal runs a multi-day workload on a lab whose machines are
// claimed by their owners every working day (9:00-17:00) — the deployment
// rhythm behind the paper's 3-year background-service run. Reported
// metrics: makespan and units lost to owner arrivals.
func BenchmarkDiurnal(b *testing.B) {
	var m *simnet.Metrics
	for i := 0; i < b.N; i++ {
		cfg := simnet.Config{
			Donors:         simnet.DiurnalLab(20, 4, 1.0, 13),
			Policy:         sched.Adaptive{Target: 30 * time.Second, Bootstrap: 1000, Min: 100},
			ServerOverhead: 3 * time.Millisecond,
			Lease:          5 * time.Minute,
			Seed:           13,
		}
		var err error
		m, err = simnet.Run(cfg, simnet.NewDivisibleWorkload(1_000_000, 40, 4096))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.Makespan.Hours(), "makespan-h")
	b.ReportMetric(float64(m.UnitsLost), "units-lost")
}

// BenchmarkBulkTransfer compares shipping an 8 MiB problem blob over the
// raw-socket bulk channel against tunnelling it through an RPC layer — the
// paper's §2.2 rationale for using ordinary sockets for data files. The
// rpc arm is stdlib net/rpc over gob, the nearest Go analogue of the
// paper's RMI and the only place this repository still uses it; the
// control arm is the repository's own control mux.
func BenchmarkBulkTransfer(b *testing.B) {
	blob := make([]byte, 8<<20)
	for i := range blob {
		blob[i] = byte(i)
	}

	b.Run("socket", func(b *testing.B) {
		bs, err := wire.NewBulkServer("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer bs.Close()
		bs.Put("blob", blob)
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := wire.FetchBlob(bs.Addr(), "blob", 30*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != len(blob) {
				b.Fatalf("short blob: %d", len(got))
			}
		}
	})

	b.Run("rpc", func(b *testing.B) {
		// Tunnel the same bytes through a real net/rpc call over TCP — the
		// "RMI" path the paper deliberately avoids for large data files.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		srv := rpc.NewServer()
		if err := srv.Register(&BlobService{blob: blob}); err != nil {
			b.Fatal(err)
		}
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go srv.ServeConn(conn)
			}
		}()
		client, err := rpc.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var got []byte
			if err := client.Call("BlobService.Fetch", struct{}{}, &got); err != nil {
				b.Fatal(err)
			}
			if len(got) != len(blob) {
				b.Fatalf("short blob: %d", len(got))
			}
		}
	})

	b.Run("control", func(b *testing.B) {
		// The same tunnel through this repository's own control channel —
		// the wire mux over the flat codec: how much of the rpc-vs-raw gap
		// was gob and net/rpc rather than multiplexing itself.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		fetch := func(context.Context, byte, *wire.Decoder) (wire.FlatMarshaler, error) {
			return BlobEnvelope{Data: blob}, nil
		}
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go wire.NewMuxServer(conn, fetch, nil).Serve(30 * time.Second)
			}
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		client, err := wire.NewMuxClient(conn, 30*time.Second, wire.MuxErrors{})
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var got BlobEnvelope
			if err := client.Call(context.Background(), 1, nil, &got); err != nil {
				b.Fatal(err)
			}
			if len(got.Data) != len(blob) {
				b.Fatalf("short blob: %d", len(got.Data))
			}
		}
	})
}

// BlobEnvelope carries the bulk-transfer bench's blob through the control
// mux as one flat byte field.
type BlobEnvelope struct{ Data []byte }

// MarshalFlat implements wire.FlatMarshaler.
func (e BlobEnvelope) MarshalFlat(enc *wire.Encoder) { enc.Bytes(e.Data) }

// UnmarshalFlat implements wire.FlatUnmarshaler.
func (e *BlobEnvelope) UnmarshalFlat(d *wire.Decoder) { e.Data = d.Bytes() }

// BlobService serves the bulk-transfer bench's blob over net/rpc.
type BlobService struct{ blob []byte }

// Fetch returns the blob.
func (s *BlobService) Fetch(_ struct{}, out *[]byte) error {
	*out = s.blob
	return nil
}

// slowDM is an endless DataManager whose NextUnit/Consume each hold the
// problem's lock for a fixed latency — a stand-in for real partitioning
// and folding work (FASTA slicing, hit merging, likelihood bookkeeping).
// It makes coordinator serialization visible: with the old single server
// mutex, every donor of every problem queued behind this hold time; with
// per-problem locks, donors dispatch against other problems while one
// problem's DataManager is busy, so round-trip throughput scales with the
// problem count.
type slowDM struct {
	hold time.Duration
	seq  int64
}

func (d *slowDM) NextUnit(int64) (*dist.Unit, bool, error) {
	time.Sleep(d.hold)
	d.seq++
	return &dist.Unit{ID: d.seq, Algorithm: "bench/noop", Cost: 1}, true, nil
}

func (d *slowDM) Consume(int64, []byte) error {
	time.Sleep(d.hold)
	return nil
}

func (d *slowDM) Done() bool                   { return false }
func (d *slowDM) FinalResult() ([]byte, error) { return nil, nil }

// BenchmarkCoordinatorSharding measures one in-process coordinator's
// RequestTask+SubmitResult round-trip throughput as the number of
// concurrent problems grows, with a fixed pool of 16 donor goroutines
// hammering it and each DataManager call holding its problem's lock for
// 100µs. The pool is hand-rolled (not b.RunParallel, which scales its
// goroutine count with GOMAXPROCS) so its curve — round trips scaling
// ~16x from 1 to 16 problems when per-problem sharding landed (see
// CHANGES.md) — is comparable across machines: the donors wait on problem
// locks, not CPU. Under the pre-shard global mutex, ns/op was flat in the problem
// count (every round-trip serialized); with per-problem state, ns/op
// drops as problems are added until the donor pool is saturated.
func BenchmarkCoordinatorSharding(b *testing.B) {
	const (
		hold      = 100 * time.Microsecond
		benchPool = 16
	)
	ctx := context.Background()
	for _, nProblems := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("problems=%d", nProblems), func(b *testing.B) {
			srv := dist.NewServer(
				dist.WithPolicy(sched.Fixed{Size: 1}),
				dist.WithLeaseTTL(time.Hour),
				dist.WithExpiryScan(time.Hour),
			)
			defer srv.Close()
			for i := 0; i < nProblems; i++ {
				if err := srv.Submit(ctx, &dist.Problem{ID: fmt.Sprintf("contend-%d", i), DM: &slowDM{hold: hold}}); err != nil {
					b.Fatal(err)
				}
			}
			var remaining atomic.Int64
			remaining.Store(int64(b.N))
			var failed atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for g := 0; g < benchPool; g++ {
				wg.Add(1)
				go func(name string) {
					defer wg.Done()
					for remaining.Add(-1) >= 0 {
						task, _, err := srv.RequestTask(ctx, name)
						if err != nil || task == nil {
							failed.Add(1)
							continue
						}
						if err := srv.SubmitResult(ctx, &dist.Result{
							ProblemID: task.ProblemID,
							UnitID:    task.Unit.ID,
							Elapsed:   time.Millisecond,
							Donor:     name,
							Epoch:     task.Epoch,
						}); err != nil {
							failed.Add(1)
						}
					}
				}(fmt.Sprintf("bench-donor-%d", g))
			}
			wg.Wait()
			b.StopTimer()
			if n := failed.Load(); n > 0 {
				b.Fatalf("%d coordinator round-trips failed", n)
			}
		})
	}
}

// fastDM is an endless DataManager with negligible lock hold time — the
// "cold" problems of the dispatch-latency benchmark.
type fastDM struct{ seq int64 }

func (d *fastDM) NextUnit(int64) (*dist.Unit, bool, error) {
	d.seq++
	return &dist.Unit{ID: d.seq, Algorithm: "bench/noop", Cost: 1}, true, nil
}

func (d *fastDM) Consume(int64, []byte) error  { return nil }
func (d *fastDM) Done() bool                   { return false }
func (d *fastDM) FinalResult() ([]byte, error) { return nil, nil }

// BenchmarkDispatchSkipsContended measures RequestTask latency on a server
// with 2 "hot" problems (DataManager holds its shard lock 2ms per call)
// and 14 cold ones, while two background donors keep the hot shards
// contended. The TryLock fast path skips the locked hot shards and serves
// a cold problem immediately; the old blocking rotation would park every
// donor behind the 2ms holds whenever the round-robin cursor landed on a
// hot problem first (~1/8 of requests), inflating tail latency by orders
// of magnitude.
func BenchmarkDispatchSkipsContended(b *testing.B) {
	const (
		hotHold = 2 * time.Millisecond
		hot     = 2
		cold    = 14
		hotPool = 2 // background donors keeping hot shards busy
	)
	ctx := context.Background()
	srv := dist.NewServer(
		dist.WithPolicy(sched.Fixed{Size: 1}),
		dist.WithLeaseTTL(time.Hour),
		dist.WithExpiryScan(time.Hour),
	)
	defer srv.Close()
	for i := 0; i < hot; i++ {
		if err := srv.Submit(ctx, &dist.Problem{ID: fmt.Sprintf("hot-%d", i), DM: &slowDM{hold: hotHold}}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < cold; i++ {
		if err := srv.Submit(ctx, &dist.Problem{ID: fmt.Sprintf("cold-%d", i), DM: &fastDM{}}); err != nil {
			b.Fatal(err)
		}
	}
	// Background donors hammer the server so the hot shards are nearly
	// always mid-NextUnit (their round-trips serialize on the 2ms holds).
	stop := make(chan struct{})
	var bgWG sync.WaitGroup
	for g := 0; g < hotPool; g++ {
		bgWG.Add(1)
		go func(name string) {
			defer bgWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				task, _, err := srv.RequestTask(ctx, name)
				if err != nil || task == nil {
					continue
				}
				_ = srv.SubmitResult(ctx, &dist.Result{
					ProblemID: task.ProblemID, UnitID: task.Unit.ID,
					Elapsed: time.Millisecond, Donor: name, Epoch: task.Epoch,
				})
			}
		}(fmt.Sprintf("bg-%d", g))
	}
	var worst time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		task, _, err := srv.RequestTask(ctx, "probe")
		if d := time.Since(t0); d > worst {
			worst = d
		}
		if err != nil {
			b.Fatal(err)
		}
		if task != nil {
			_ = srv.SubmitResult(ctx, &dist.Result{
				ProblemID: task.ProblemID, UnitID: task.Unit.ID,
				Elapsed: time.Millisecond, Donor: "probe", Epoch: task.Epoch,
			})
		}
	}
	b.StopTimer()
	close(stop)
	bgWG.Wait()
	b.ReportMetric(float64(worst.Microseconds()), "worst-dispatch-us")
}

// oneShotDM hands out exactly one unit and is done once its result folds —
// the smallest possible workload, so the dispatch-latency benchmark
// measures the control channel and nothing else.
type oneShotDM struct{ dispatched, consumed bool }

func (d *oneShotDM) NextUnit(int64) (*dist.Unit, bool, error) {
	if d.dispatched {
		return nil, false, nil
	}
	d.dispatched = true
	return &dist.Unit{ID: 1, Algorithm: "bench/noop", Cost: 1}, true, nil
}

func (d *oneShotDM) Consume(int64, []byte) error  { d.consumed = true; return nil }
func (d *oneShotDM) Done() bool                   { return d.consumed }
func (d *oneShotDM) FinalResult() ([]byte, error) { return nil, nil }

// BenchmarkDispatchLatency measures how long an idle donor fleet takes to
// pick up freshly submitted work at 1/16/128/256/1024 donors. Donors are
// parked in WaitTask; the Submit wakes them. Latency is a channel close and
// one dispatch scan, and an idle fleet costs ~one control call per donor
// per park (1s here).
//
// Reported metrics: mean and worst wakeup latency across b.N submits, and
// the idle control-channel call rate measured over a quiet window after
// the timed section.
func BenchmarkDispatchLatency(b *testing.B) {
	ctx := context.Background()
	for _, donors := range []int{1, 16, 128, 256, 1024} {
		b.Run(fmt.Sprintf("donors=%d", donors), func(b *testing.B) {
			srv := dist.NewServer(
				dist.WithPolicy(sched.Fixed{Size: 1}),
				dist.WithLeaseTTL(time.Hour),
				dist.WithExpiryScan(time.Hour),
			)
			defer srv.Close()

			dispatched := make(chan time.Time, 1)
			var calls atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < donors; g++ {
				wg.Add(1)
				go func(name string) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						calls.Add(1)
						task, _, err := srv.WaitTask(ctx, name, time.Second)
						if err != nil {
							return // ErrClosed at teardown
						}
						if task == nil {
							continue // park expired; re-park
						}
						select {
						case dispatched <- time.Now():
						default:
						}
						_ = srv.SubmitResult(ctx, &dist.Result{
							ProblemID: task.ProblemID, UnitID: task.Unit.ID,
							Elapsed: time.Millisecond, Donor: name, Epoch: task.Epoch,
						})
					}
				}(fmt.Sprintf("push-%d-%d", donors, g))
			}
			// Let the fleet settle into its parks before measuring.
			time.Sleep(150 * time.Millisecond)

			var total, worst time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := fmt.Sprintf("lat-%d-%d", donors, i)
				t0 := time.Now()
				if err := srv.Submit(ctx, &dist.Problem{ID: id, DM: &oneShotDM{}}); err != nil {
					b.Fatal(err)
				}
				lat := (<-dispatched).Sub(t0)
				total += lat
				if lat > worst {
					worst = lat
				}
				if _, err := srv.Wait(ctx, id); err != nil {
					b.Fatal(err)
				}
				_ = srv.Forget(id)
			}
			b.StopTimer()

			// Idle control-channel rate: how hard does a fleet with no
			// work hammer the server?
			calls.Store(0)
			time.Sleep(300 * time.Millisecond)
			idleQPS := float64(calls.Load()) / 0.3

			close(stop)
			srv.Close() // unparks the donors so the pool can exit
			wg.Wait()

			b.ReportMetric(float64(total.Microseconds())/float64(b.N)/1000, "wakeup-ms")
			b.ReportMetric(float64(worst.Microseconds())/1000, "worst-wakeup-ms")
			b.ReportMetric(idleQPS, "idle-ctrl-qps")
		})
	}
}

// costAlg sleeps proportionally to the unit's encoded cost — the
// synthetic workload for the swarm makespan benchmark, where the swarm's
// throttle wrapper then stretches that sleep per the donor's profile.
type costAlg struct{}

func (costAlg) Init([]byte) error { return nil }

func (costAlg) ProcessCtx(ctx context.Context, payload []byte) ([]byte, error) {
	cost := int64(binary.LittleEndian.Uint32(payload))
	t := time.NewTimer(time.Duration(cost) * costGrain)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-t.C:
	}
	return []byte{1}, nil
}

// costGrain is the full-speed compute time per unit of cost.
const costGrain = 500 * time.Microsecond

var registerCostAlgOnce sync.Once

// costDM partitions a total cost budget into units sized to whatever the
// policy asks for — the DM shape the adaptive policies need to show a
// makespan difference.
type costDM struct {
	remaining int64
	seq       int64
	folded    map[int64]bool
}

func newCostDM(total int64) *costDM {
	return &costDM{remaining: total, folded: make(map[int64]bool)}
}

func (d *costDM) NextUnit(budget int64) (*dist.Unit, bool, error) {
	if d.remaining <= 0 {
		return nil, false, nil
	}
	take := budget
	if take < 1 {
		take = 1
	}
	if take > d.remaining {
		take = d.remaining
	}
	d.remaining -= take
	d.seq++
	payload := make([]byte, 4)
	binary.LittleEndian.PutUint32(payload, uint32(take))
	return &dist.Unit{ID: d.seq, Algorithm: "bench/cost", Cost: take, Payload: payload}, true, nil
}

func (d *costDM) Consume(unitID int64, _ []byte) error { d.folded[unitID] = true; return nil }
func (d *costDM) Done() bool                           { return d.remaining <= 0 && int64(len(d.folded)) >= d.seq }
func (d *costDM) FinalResult() ([]byte, error)         { return nil, nil }
func (d *costDM) RemainingCost() int64                 { return d.remaining }

// BenchmarkSwarmMakespan drains one cost-partitioned problem through a
// real 1024-donor swarm (internal/swarm: live loopback server, shaped
// connections, throttled algorithms) on a straggler-heavy fleet — 5% of
// donors at 2% speed — under three schedulers:
//
//   - fixed64: the non-adaptive baseline. Stragglers receive the same
//     64-cost units as everyone else and sit on them ~50x longer; the
//     makespan is their tail.
//   - adaptive: per-donor throughput sizing (the paper's policy).
//     Stragglers bootstrap small and stay small, shrinking the tail.
//   - adaptive+spec: adaptive plus WithSpeculation(0.85) — once the
//     problem is 85% complete, idle fast donors re-execute straggler
//     leases and the first result wins. The lease is an hour, so
//     speculation (not expiry) is the only rescue; this is the PR 9
//     acceptance comparison.
//
// Reported per variant: wall-clock makespan, units speculated, and
// dispatched/completed totals. Run with -benchtime 1x; each iteration
// builds and drains a fresh fleet.
func BenchmarkSwarmMakespan(b *testing.B) {
	registerCostAlgOnce.Do(func() {
		dist.RegisterAlgorithm("bench/cost", func() dist.Algorithm { return costAlg{} })
	})
	const (
		donors    = 1024
		totalCost = 96 * 1024 // ~1.5 full-speed units of 64 per donor
	)
	adaptive := func() sched.Policy {
		return sched.Adaptive{Target: 25 * time.Millisecond, Bootstrap: 16, Min: 4, Max: 1024}
	}
	for _, v := range []struct {
		name      string
		policy    sched.Policy
		speculate float64
	}{
		{"fixed64", sched.Fixed{Size: 64}, 0},
		{"adaptive", adaptive(), 0},
		{"adaptive+spec", adaptive(), 0.85},
	} {
		b.Run(fmt.Sprintf("%s/donors=%d", v.name, donors), func(b *testing.B) {
			ctx := context.Background()
			var makespanMS, speculated, dispatched, completed float64
			for iter := 0; iter < b.N; iter++ {
				opts := []dist.ServerOption{
					dist.WithPolicy(v.policy),
					dist.WithLeaseTTL(time.Hour), // expiry must never rescue the tail
					dist.WithExpiryScan(time.Hour),
					dist.WithDispatchBatch(-1), // single-unit leases: makespan isolates sizing+speculation
				}
				if v.speculate > 0 {
					opts = append(opts, dist.WithSpeculation(v.speculate))
				}
				srv, err := dist.ListenAndServe("127.0.0.1:0", "127.0.0.1:0", opts...)
				if err != nil {
					b.Fatal(err)
				}
				sw, err := swarm.New(swarm.Config{
					RPCAddr: srv.RPCAddr(),
					Specs:   simnet.StragglerLab(donors, 0.05, 0.02, 7),
					Seed:    7,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := sw.Start(ctx); err != nil {
					b.Fatal(err)
				}
				dm := newCostDM(totalCost)
				start := time.Now()
				if err := srv.Submit(ctx, &dist.Problem{ID: "makespan", DM: dm}); err != nil {
					b.Fatal(err)
				}
				if _, err := srv.Wait(ctx, "makespan"); err != nil {
					b.Fatal(err)
				}
				makespan := time.Since(start)
				st, _ := srv.Stats(ctx, "makespan")
				sw.Stop()
				srv.Close()
				makespanMS += float64(makespan.Milliseconds())
				speculated += float64(st.Speculated)
				dispatched += float64(st.Dispatched)
				completed += float64(st.Completed)
				if st.Completed > st.Dispatched {
					b.Fatalf("completed %d > dispatched %d", st.Completed, st.Dispatched)
				}
			}
			n := float64(b.N)
			b.ReportMetric(makespanMS/n, "makespan-ms")
			b.ReportMetric(speculated/n, "speculated")
			b.ReportMetric(dispatched/n, "dispatched")
			b.ReportMetric(completed/n, "completed")
		})
	}
}

// dedupAlg acknowledges a unit after Init saw the shared alignment — the
// cheapest donor-side work that still forces every donor through the
// shared-blob fetch path the dedup benchmark measures.
type dedupAlg struct{ ok bool }

func (a *dedupAlg) Init(shared []byte) error {
	a.ok = len(shared) > 0
	return nil
}

func (a *dedupAlg) ProcessCtx(context.Context, []byte) ([]byte, error) {
	if !a.ok {
		return nil, fmt.Errorf("no shared data")
	}
	return []byte{1}, nil
}

var registerDedupAlgOnce sync.Once

// dedupDM hands out a fixed number of trivial units.
type dedupDM struct{ units, seq, done int64 }

func (d *dedupDM) NextUnit(int64) (*dist.Unit, bool, error) {
	if d.seq >= d.units {
		return nil, false, nil
	}
	d.seq++
	return &dist.Unit{ID: d.seq, Algorithm: "bench/dedup", Cost: 1}, true, nil
}

func (d *dedupDM) Consume(int64, []byte) error  { d.done++; return nil }
func (d *dedupDM) Done() bool                   { return d.done >= d.units }
func (d *dedupDM) FinalResult() ([]byte, error) { return nil, nil }

// BenchmarkSharedBlobDedup measures the cost of the paper's shared data
// when N problem instances share one alignment. 16 problems carrying the
// same 1 MiB blob run over a real loopback deployment (4 networked
// donors); reported:
//
//	fetched-MB/donor  bulk bytes shipped to an average donor
//	submit-ms     wall time of the 16 Submit calls (including the SHA-256
//	              of the shared blob — microseconds per megabyte)
//	drain-ms      donor launch to last problem folded
//
// Each donor fetches the blob once (digest-keyed cache), so the byte axis
// reads ~1 MB, not ~16. The bulk channel keeps no copy of its own to count:
// it serves the submitted problems' bytes.
func BenchmarkSharedBlobDedup(b *testing.B) {
	registerDedupAlgOnce.Do(func() {
		dist.RegisterAlgorithm("bench/dedup", func() dist.Algorithm { return &dedupAlg{} })
	})
	shared := make([]byte, 1<<20)
	for i := range shared {
		shared[i] = byte(i * 31)
	}
	const (
		problems = 16
		units    = 8 // per problem: every donor likely touches every problem
		donors   = 4
	)
	ctx := context.Background()
	var fetchedMBPerDonor, submitMS, drainMS float64
	for iter := 0; iter < b.N; iter++ {
		srv, err := dist.ListenAndServe("127.0.0.1:0", "127.0.0.1:0",
			dist.WithPolicy(sched.Fixed{Size: 1}),
			dist.WithLeaseTTL(time.Hour),
			dist.WithExpiryScan(time.Hour),
		)
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		for i := 0; i < problems; i++ {
			if err := srv.Submit(ctx, &dist.Problem{
				ID:         fmt.Sprintf("dedup-%d", i),
				DM:         &dedupDM{units: units},
				SharedData: shared,
			}); err != nil {
				b.Fatal(err)
			}
		}
		submitMS += float64(time.Since(t0).Microseconds()) / 1000

		var wg sync.WaitGroup
		pool := make([]*dist.Donor, donors)
		clients := make([]*dist.RPCClient, donors)
		t0 = time.Now()
		for g := range pool {
			cl, err := dist.Dial(srv.RPCAddr(), 10*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			clients[g] = cl
			pool[g] = dist.NewDonor(cl, dist.WithName(fmt.Sprintf("dedup-%d", g)))
			wg.Add(1)
			go func(d *dist.Donor) { defer wg.Done(); _ = d.Run(ctx) }(pool[g])
		}
		for i := 0; i < problems; i++ {
			if _, err := srv.Wait(ctx, fmt.Sprintf("dedup-%d", i)); err != nil {
				b.Fatal(err)
			}
		}
		drainMS += float64(time.Since(t0).Microseconds()) / 1000
		fetchedMBPerDonor += float64(srv.BulkStats().BytesServed) / (1 << 20) / donors
		for _, d := range pool {
			d.Stop()
		}
		wg.Wait()
		for _, cl := range clients {
			_ = cl.Close()
		}
		srv.Close()
	}
	b.ReportMetric(fetchedMBPerDonor/float64(b.N), "fetched-MB/donor")
	b.ReportMetric(submitMS/float64(b.N), "submit-ms")
	b.ReportMetric(drainMS/float64(b.N), "drain-ms")
}
