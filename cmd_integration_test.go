package repro

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/seq"
)

// buildCmdBinaries compiles cmd/server and cmd/donor once per test run
// (both multi-process tests share the build) and returns their paths. The
// build directory outlives any single test, so TestMain — not t.TempDir —
// owns its cleanup.
var buildOnce sync.Once
var buildDir, builtServer, builtDonor string
var buildErr error

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		_ = os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

func buildCmdBinaries(t *testing.T) (serverBin, donorBin string) {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "repro-cmd-bin")
		if err != nil {
			buildErr = err
			return
		}
		buildDir = dir
		builtServer = filepath.Join(dir, "server")
		builtDonor = filepath.Join(dir, "donor")
		for _, b := range []struct{ out, pkg string }{
			{builtServer, "./cmd/server"},
			{builtDonor, "./cmd/donor"},
		} {
			cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
			cmd.Env = os.Environ()
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = fmt.Errorf("building %s: %v\n%s", b.pkg, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return builtServer, builtDonor
}

// TestServerDonorBinaries is the full multi-process deployment test: it
// builds the real cmd/server and cmd/donor binaries, starts one server and
// two donor processes on loopback (control over the wire mux, bulk data over a
// raw socket), runs a DSEARCH problem end to end, and checks the report.
func TestServerDonorBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	dir := t.TempDir()

	// Synthetic database and queries on disk, as a user would provide.
	gen := seq.NewGenerator(seq.Protein, 77)
	w := gen.NewSearchWorkload(60, 2, 3, seq.LengthModel{Mean: 120, StdDev: 30, Min: 60, Max: 200})
	dbPath := filepath.Join(dir, "db.fasta")
	qPath := filepath.Join(dir, "q.fasta")
	if err := seq.WriteFASTAFile(dbPath, w.DB); err != nil {
		t.Fatal(err)
	}
	if err := seq.WriteFASTAFile(qPath, w.Queries); err != nil {
		t.Fatal(err)
	}

	serverBin, donorBin := buildCmdBinaries(t)

	rpcAddr := freeAddr(t)
	bulkAddr := freeAddr(t)

	var serverOut bytes.Buffer
	server := exec.Command(serverBin,
		"-app", "dsearch", "-db", dbPath, "-queries", qPath,
		"-rpc", rpcAddr, "-bulk", bulkAddr, "-policy", "adaptive:200ms")
	server.Stdout = &serverOut
	server.Stderr = &serverOut
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	serverDone := make(chan error, 1)
	go func() { serverDone <- server.Wait() }()
	defer func() { _ = server.Process.Kill() }()

	// Give the listeners a moment, then attach two donors.
	waitForListener(t, rpcAddr)
	var donors []*exec.Cmd
	for i := 0; i < 2; i++ {
		d := exec.Command(donorBin, "-server", rpcAddr, "-name", fmt.Sprintf("it-donor-%d", i))
		d.Stdout = os.Stderr
		d.Stderr = os.Stderr
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		donors = append(donors, d)
	}
	defer func() {
		for _, d := range donors {
			_ = d.Process.Kill()
			_ = d.Wait()
		}
	}()

	select {
	case err := <-serverDone:
		if err != nil {
			t.Fatalf("server exited with error: %v\n%s", err, serverOut.String())
		}
	case <-time.After(90 * time.Second):
		t.Fatalf("server did not finish in 90s; output so far:\n%s", serverOut.String())
	}

	out := serverOut.String()
	if !strings.Contains(out, "QUERY") {
		t.Errorf("server output lacks hit report:\n%s", out)
	}
	for q, members := range w.Planted {
		if !strings.Contains(out, q) {
			t.Errorf("report missing query %s", q)
		}
		if !strings.Contains(out, members[0]) {
			t.Errorf("report missing planted homolog %s for %s", members[0], q)
		}
	}
}

// statsLine extracts (dispatched, completed, reissued, speculated) from the
// server binary's final accounting log line.
var statsLineRE = regexp.MustCompile(`(\d+) units dispatched, (\d+) completed, (\d+) reissued, (\d+) speculated`)

func parseStatsLine(t *testing.T, out string) (dispatched, completed, reissued, speculated int) {
	t.Helper()
	m := statsLineRE.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("server output lacks the stats line:\n%s", out)
	}
	dispatched, _ = strconv.Atoi(m[1])
	completed, _ = strconv.Atoi(m[2])
	reissued, _ = strconv.Atoi(m[3])
	speculated, _ = strconv.Atoi(m[4])
	return dispatched, completed, reissued, speculated
}

// TestDonorChurnRealNetwork promotes the manual tmux churn probe into the
// suite: a real cmd/server process on loopback, a first generation of real
// cmd/donor processes SIGKILLed mid-run (taking their leases with them),
// and a replacement generation that must drain the remainder. Asserts
// completion, the recovery the kill must have caused (the lease is an hour,
// so the overdue rule brings the dead donors' units back a few seconds
// after their grant at most: as a reissue once a lease expires, or as a
// speculative copy a free donor takes first), that no unit was folded
// twice (completed never exceeds dispatched, and the planted homologs
// appear in the report exactly as a clean run produces them), and that the
// replacement donors actually worked.
func TestDonorChurnRealNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process churn test skipped in -short mode")
	}
	serverBin, donorBin := buildCmdBinaries(t)
	dir := t.TempDir()

	// A workload big enough that three donors need several seconds: the
	// kill at ~2s is guaranteed to land mid-run, with leases in flight
	// (donors compute ~300ms units back to back; the lease-free gap
	// between SubmitResult and the next dispatch is microseconds). Thirty
	// queries against 30000 sequences take three donors about 6 s with
	// the AVX2 Smith–Waterman kernel on a 2-vCPU host.
	gen := seq.NewGenerator(seq.Protein, 42)
	w := gen.NewSearchWorkload(30000, 30, 3, seq.LengthModel{Mean: 150, StdDev: 40, Min: 60, Max: 300})
	dbPath := filepath.Join(dir, "db.fasta")
	qPath := filepath.Join(dir, "q.fasta")
	if err := seq.WriteFASTAFile(dbPath, w.DB); err != nil {
		t.Fatal(err)
	}
	if err := seq.WriteFASTAFile(qPath, w.Queries); err != nil {
		t.Fatal(err)
	}

	rpcAddr := freeAddr(t)
	bulkAddr := freeAddr(t)
	var serverOut syncBuffer
	server := exec.Command(serverBin,
		"-app", "dsearch", "-db", dbPath, "-queries", qPath,
		"-rpc", rpcAddr, "-bulk", bulkAddr,
		"-policy", "adaptive:300ms", "-lease", "1h")
	server.Stdout = &serverOut
	server.Stderr = &serverOut
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	serverDone := make(chan error, 1)
	go func() { serverDone <- server.Wait() }()
	defer func() { _ = server.Process.Kill() }()
	waitForListener(t, rpcAddr)

	spawnDonor := func(name string) *exec.Cmd {
		t.Helper()
		d := exec.Command(donorBin, "-server", rpcAddr, "-name", name)
		d.Stdout = os.Stderr
		d.Stderr = os.Stderr
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	var gen1 []*exec.Cmd
	for i := 0; i < 3; i++ {
		gen1 = append(gen1, spawnDonor(fmt.Sprintf("churn-gen1-%d", i)))
	}

	// Let the first generation sink its teeth in, then kill it ungracefully.
	time.Sleep(2 * time.Second)
	select {
	case err := <-serverDone:
		t.Fatalf("workload finished before the churn (enlarge it): err=%v\n%s", err, serverOut.String())
	default:
	}
	for _, d := range gen1 {
		_ = d.Process.Kill() // SIGKILL: no goodbye, leases die with the process
		_ = d.Wait()
	}

	var gen2 []*exec.Cmd
	for i := 0; i < 3; i++ {
		gen2 = append(gen2, spawnDonor(fmt.Sprintf("churn-gen2-%d", i)))
	}
	defer func() {
		for _, d := range gen2 {
			_ = d.Process.Kill()
			_ = d.Wait()
		}
	}()

	select {
	case err := <-serverDone:
		if err != nil {
			t.Fatalf("server exited with error: %v\n%s", err, serverOut.String())
		}
	case <-time.After(120 * time.Second):
		t.Fatalf("server did not finish in 120s after churn; output so far:\n%s", serverOut.String())
	}

	out := serverOut.String()
	dispatched, completed, reissued, speculated := parseStatsLine(t, out)
	t.Logf("churn accounting: %d dispatched, %d completed, %d reissued, %d speculated", dispatched, completed, reissued, speculated)
	if completed == 0 {
		t.Error("no units completed")
	}
	if reissued+speculated < 1 {
		t.Errorf("reissued %d + speculated %d, want >= 1 (three donors were SIGKILLed mid-run)", reissued, speculated)
	}
	if completed > dispatched {
		t.Errorf("completed %d > dispatched %d: some unit was folded twice", completed, dispatched)
	}
	// The report must be what an unchurned run produces: every planted
	// homolog found for its query.
	if !strings.Contains(out, "QUERY") {
		t.Errorf("server output lacks hit report:\n%s", out)
	}
	for q, members := range w.Planted {
		if !strings.Contains(out, q) {
			t.Errorf("report missing query %s", q)
		}
		if !strings.Contains(out, members[0]) {
			t.Errorf("report missing planted homolog %s for %s", members[0], q)
		}
	}
}

// TestCoordinatorCrashRecoveryRealNetwork is the durability counterpart of
// the donor-churn test: this time the COORDINATOR dies. A real cmd/server
// with -data-dir is SIGKILLed mid-problem (no goodbye, no final
// checkpoint), then restarted on the same directory and the same control
// address — WITHOUT the -db/-queries inputs, so the run can only continue
// if the journal actually restored the problem. The surviving donors
// redial on their own (PR 2 machinery), any straggler results they carry
// from the first incarnation are fenced by epoch, and the problem
// completes without being resubmitted, producing exactly the report a
// crash-free run produces.
func TestCoordinatorCrashRecoveryRealNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash-recovery test skipped in -short mode")
	}
	serverBin, donorBin := buildCmdBinaries(t)
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "journal")

	// ~1.2M residues cut into fixed 6000-residue units: ~200 units whatever
	// the host's speed, each donor throttled to at most 10 a second, so
	// the drain cannot outrun the kill below.
	gen := seq.NewGenerator(seq.Protein, 1234)
	w := gen.NewSearchWorkload(8000, 3, 3, seq.LengthModel{Mean: 150, StdDev: 40, Min: 60, Max: 300})
	dbPath := filepath.Join(dir, "db.fasta")
	qPath := filepath.Join(dir, "q.fasta")
	if err := seq.WriteFASTAFile(dbPath, w.DB); err != nil {
		t.Fatal(err)
	}
	if err := seq.WriteFASTAFile(qPath, w.Queries); err != nil {
		t.Fatal(err)
	}

	rpcAddr := freeAddr(t)
	bulkAddr := freeAddr(t)
	startServer := func(out *syncBuffer, withInputs bool) *exec.Cmd {
		t.Helper()
		args := []string{
			"-app", "dsearch", "-rpc", rpcAddr, "-bulk", bulkAddr,
			"-policy", "fixed:6000", "-lease", "2s",
			"-data-dir", dataDir, "-snapshot-records", "20",
			"-progress", "0", // log every fold: the kill below is gated on these lines
		}
		if withInputs {
			args = append(args, "-db", dbPath, "-queries", qPath)
		}
		s := exec.Command(serverBin, args...)
		s.Stdout = out
		s.Stderr = out
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		return s
	}

	var out1 syncBuffer
	server1 := startServer(&out1, true)
	done1 := make(chan error, 1)
	go func() { done1 <- server1.Wait() }()
	defer func() { _ = server1.Process.Kill() }()
	waitForListener(t, rpcAddr)

	// Donors with a fast redial loop: they must survive the coordinator's
	// death and reattach to its successor unassisted.
	var donors []*exec.Cmd
	for i := 0; i < 3; i++ {
		d := exec.Command(donorBin, "-server", rpcAddr,
			"-name", fmt.Sprintf("crash-donor-%d", i), "-retry", "500ms", "-throttle", "100ms")
		d.Stdout = os.Stderr
		d.Stderr = os.Stderr
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		donors = append(donors, d)
	}
	defer func() {
		for _, d := range donors {
			_ = d.Process.Kill()
			_ = d.Wait()
		}
	}()

	// Kill the coordinator without ceremony once the state worth crashing
	// in is on disk: a checkpoint that holds at least killAfterUnits folds,
	// and units out on lease. Folds journaled after the newest checkpoint
	// may still sit in the group-commit buffer, which a SIGKILL discards,
	// so the checkpoint must be one that began after killAfterUnits folds
	// were seen: its generation is past the newest WAL segment's at that
	// moment (a checkpoint rotated before it may capture fewer).
	const killAfterUnits = 25
	var doneAtKill, inflightAtKill int
	walAtCount := -1
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		select {
		case err := <-done1:
			t.Fatalf("server exited before the crash: err=%v\n%s", err, out1.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint of %d folds with units in flight within 60s:\n%s", killAfterUnits, out1.String())
		}
		lines := progressLineRE.FindAllStringSubmatch(out1.String(), -1)
		if len(lines) == 0 {
			continue
		}
		doneAtKill, _ = strconv.Atoi(lines[len(lines)-1][1])
		inflightAtKill, _ = strconv.Atoi(lines[len(lines)-1][2])
		if doneAtKill < killAfterUnits {
			continue
		}
		if walAtCount < 0 {
			walAtCount = newestGeneration(t, dataDir, "wal-")
			continue
		}
		// Only a renamed-into-place checkpoint counts: the journal writes
		// snap-N.tmp first.
		if newestGeneration(t, dataDir, "snap-") > walAtCount && inflightAtKill >= 1 {
			break
		}
	}
	_ = server1.Process.Kill() // SIGKILL: journal tail stays as-is on disk
	<-done1                    // reap via the goroutine already in Wait
	t.Logf("killed the coordinator at %d units done, %d in flight", doneAtKill, inflightAtKill)

	var out2 syncBuffer
	server2 := startServer(&out2, false) // no -db/-queries: only the journal can resume this
	done2 := make(chan error, 1)
	go func() { done2 <- server2.Wait() }()
	defer func() { _ = server2.Process.Kill() }()
	waitForListener(t, rpcAddr)

	select {
	case err := <-done2:
		if err != nil {
			t.Fatalf("restarted server exited with error: %v\n%s", err, out2.String())
		}
	case <-time.After(120 * time.Second):
		t.Fatalf("restarted server did not finish in 120s; output so far:\n%s", out2.String())
	}

	restarted := out2.String()
	if !strings.Contains(restarted, "recovered problem \"dsearch\"") {
		t.Errorf("restart log lacks the recovery summary:\n%s", restarted)
	}
	if !strings.Contains(restarted, "resuming recovered problem") {
		t.Errorf("restarted server did not resume from the journal:\n%s", restarted)
	}
	dispatched, completed, reissued, _ := parseStatsLine(t, restarted)
	t.Logf("post-recovery accounting: %d dispatched, %d completed, %d reissued", dispatched, completed, reissued)
	// The kill landed mid-problem: the journal held fewer folds than the
	// problem has units, and the successor had to compute the rest.
	m := recoveredLineRE.FindStringSubmatch(restarted)
	if m == nil {
		t.Fatalf("restart log lacks the recovered-units count:\n%s", restarted)
	}
	if recovered, _ := strconv.Atoi(m[1]); recovered < killAfterUnits || recovered >= completed {
		t.Errorf("journal restored %d folds of %d: want at least the %d seen before the kill and fewer than all",
			recovered, completed, killAfterUnits)
	}
	if completed > dispatched {
		t.Errorf("completed %d > dispatched %d: some unit was folded twice across the restart", completed, dispatched)
	}
	// The report must be exactly what a crash-free run produces: every
	// planted homolog found, nothing lost to the crash, nothing double
	// counted by replay or by fenced stragglers.
	if !strings.Contains(restarted, "QUERY") {
		t.Errorf("server output lacks hit report:\n%s", restarted)
	}
	for q, members := range w.Planted {
		if !strings.Contains(restarted, q) {
			t.Errorf("report missing query %s", q)
		}
		if !strings.Contains(restarted, members[0]) {
			t.Errorf("report missing planted homolog %s for %s", members[0], q)
		}
	}
}

// newestGeneration returns the highest generation among the journal
// files in dir named prefix followed by digits, or -1 when there is none.
func newestGeneration(t *testing.T, dir, prefix string) int {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, prefix+"*[0-9]"))
	if err != nil {
		t.Fatal(err)
	}
	newest := -1
	for _, name := range names {
		if g, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(name), prefix)); err == nil && g > newest {
			newest = g
		}
	}
	return newest
}

// progressLineRE matches cmd/server's per-fold progress line;
// recoveredLineRE its restart summary of what the journal restored.
var (
	progressLineRE  = regexp.MustCompile(`(\d+) units done \((\d+) in flight`)
	recoveredLineRE = regexp.MustCompile(`recovered problem "dsearch" from journal \(epoch \d+, (\d+) units completed`)
)

// syncBuffer is a mutex-guarded bytes.Buffer: the server process writes
// into it from its own pipe goroutines while the test reads mid-run.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freeAddr reserves a loopback port and returns host:port.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// waitForListener polls until the server's RPC port accepts connections.
func waitForListener(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("server never listened on %s", addr)
}
