package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/transport"
)

// TestHelperProcess is not a test: it is the body of a child process
// spawned by the multi-process tests. It runs the real server entry point
// on the arguments after "--".
func TestHelperProcess(t *testing.T) {
	if os.Getenv("ESDS_SERVER_HELPER") != "1" {
		t.Skip("helper process entry point")
	}
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	os.Exit(run(args, os.Stdin, os.Stdout, os.Stderr))
}

// spawnReplica starts one replica as a separate OS process and waits for
// its READY line.
func spawnReplica(t *testing.T, id int, peers []string, extra ...string) *exec.Cmd {
	t.Helper()
	cmd, _ := spawnReplicaWatch(t, id, peers, extra...)
	return cmd
}

// spawnReplicaWatch is spawnReplica plus a getter over everything the
// replica has printed so far (the recovery test reads the RECOVERED status
// line from it).
func spawnReplicaWatch(t *testing.T, id int, peers []string, extra ...string) (*exec.Cmd, func() string) {
	t.Helper()
	args := []string{"-test.run=TestHelperProcess", "--",
		"-id", fmt.Sprint(id), "-peers", strings.Join(peers, ","), "-gossip", "20ms"}
	args = append(args, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ESDS_SERVER_HELPER=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	var mu sync.Mutex
	var captured strings.Builder
	ready := make(chan string, 1)
	go func() {
		scanner := bufio.NewScanner(out)
		sawReady := false
		for scanner.Scan() {
			line := scanner.Text()
			mu.Lock()
			captured.WriteString(line)
			captured.WriteByte('\n')
			mu.Unlock()
			if !sawReady && strings.HasPrefix(line, "READY") {
				sawReady = true
				ready <- line
			}
		}
		if !sawReady {
			close(ready)
		}
	}()
	select {
	case line, ok := <-ready:
		if !ok {
			t.Fatalf("replica %d exited before READY", id)
		}
		t.Logf("replica %d: %s", id, line)
	case <-time.After(10 * time.Second):
		t.Fatalf("replica %d did not become ready", id)
	}
	return cmd, func() string {
		mu.Lock()
		defer mu.Unlock()
		return captured.String()
	}
}

// reservePorts binds and immediately releases n loopback ports, returning
// their addresses for the cluster's static peer list.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// TestThreeProcessCluster is the end-to-end deployment test: three replica
// processes on loopback TCP, driven by a front end in this process. A
// non-strict and a strict operation must both complete, and the strict
// read must observe the causally preceding write.
func TestThreeProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	core.RegisterWire()
	peers := reservePorts(t, 3)
	for i := 0; i < 3; i++ {
		spawnReplica(t, i, peers)
	}

	feNet, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer feNet.Close()
	for i, addr := range peers {
		feNet.SetPeer(core.ReplicaNode(label.ReplicaID(i)), addr)
	}
	cluster := core.NewCluster(core.ClusterConfig{
		Replicas:      3,
		DataType:      dtype.Counter{},
		Network:       feNet,
		LocalReplicas: []int{},
	})
	defer cluster.Close()
	feNet.Start()
	fe := cluster.FrontEnd("itest")
	cluster.StartLiveRetransmit(250 * time.Millisecond)

	add, v, err := submitWithDeadline(fe, dtype.CtrAdd{N: 7}, nil, false, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v != "ok" {
		t.Fatalf("non-strict add returned %v", v)
	}
	_, v, err = submitWithDeadline(fe, dtype.CtrRead{}, []ops.ID{add.ID}, true, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(7) {
		t.Fatalf("strict read returned %v, want 7", v)
	}
}

// TestClientModeAgainstCluster drives the -client stdin/stdout interface
// against a real multi-process cluster.
func TestClientModeAgainstCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	peers := reservePorts(t, 3)
	for i := 0; i < 3; i++ {
		spawnReplica(t, i, peers)
	}

	var stdout strings.Builder
	script := strings.NewReader("add 2\nadd 3\nread!\n")
	code := run([]string{"-client", "cli", "-peers", strings.Join(peers, ",")}, script, &stdout, os.Stderr)
	if code != 0 {
		t.Fatalf("client mode exited %d\noutput:\n%s", code, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 4 { // READY + three responses
		t.Fatalf("client printed %d lines:\n%s", len(lines), stdout.String())
	}
	// The strict read is causally after both adds (prev chaining), so it
	// must observe 5.
	if !strings.HasSuffix(lines[3], "= 5") {
		t.Fatalf("strict read line = %q, want suffix %q", lines[3], "= 5")
	}

	// A second session under the same client name starts its sequence at 0
	// again; its operations must still be new to the replicas, not answered
	// as the first session's.
	stdout.Reset()
	code = run([]string{"-client", "cli", "-peers", strings.Join(peers, ",")}, strings.NewReader("add 4\nread!\n"), &stdout, os.Stderr)
	if code != 0 {
		t.Fatalf("second session exited %d\noutput:\n%s", code, stdout.String())
	}
	lines = strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 3 || lines[0] != "READY client=cli type=counter" {
		t.Fatalf("second session printed:\n%s", stdout.String())
	}
	if !strings.HasSuffix(lines[2], "= 9") {
		t.Fatalf("second session's strict read line = %q, want suffix %q", lines[2], "= 9")
	}
}

// TestKillNineRecoveryWithPruning is the multi-process crash-recovery
// test: a replica process is SIGKILLed mid-load with pruning ON, then
// restarted with -recover against the same stable store. By restart time
// the survivors have pruned the early descriptors, so the rejoined replica
// can only catch up through the §9.3 state transfer (range catch-up). The proof of
// convergence is a strict read pinned to the restarted replica and
// causally ordered after the whole write chain: its value is computed from
// the restarted replica's own history, so it is correct iff the snapshot
// restored every pruned operation.
func TestKillNineRecoveryWithPruning(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	core.RegisterWire()
	peers := reservePorts(t, 3)
	storeDir := t.TempDir()
	procs := make([]*exec.Cmd, 3)
	for i := 0; i < 3; i++ {
		procs[i] = spawnReplica(t, i, peers, "-store", storeDir)
	}

	feNet, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer feNet.Close()
	for i, addr := range peers {
		feNet.SetPeer(core.ReplicaNode(label.ReplicaID(i)), addr)
	}
	cluster := core.NewCluster(core.ClusterConfig{
		Replicas:      3,
		DataType:      dtype.Counter{},
		Network:       feNet,
		LocalReplicas: []int{},
	})
	defer cluster.Close()
	feNet.Start()
	cluster.StartLiveRetransmit(250 * time.Millisecond)
	fe := cluster.FrontEnd("load")

	// Causally chained adds: each op's prev is its predecessor, so a read
	// ordered after the last add is ordered after ALL of them.
	const preCrash, postCrash = 12, 8
	total := 0
	var last ops.ID
	add := func(n int) {
		x, v, err := submitWithDeadline(fe, dtype.CtrAdd{N: int64(n)}, prevOf(last), false, 15*time.Second)
		if err != nil {
			t.Fatalf("add %d: %v", n, err)
		}
		if v != "ok" {
			t.Fatalf("add %d returned %v", n, v)
		}
		last = x.ID
		total += n
	}
	for i := 1; i <= preCrash; i++ {
		add(i)
	}
	// Let the pre-crash history stabilize and prune at every replica (the
	// gossip period is 20ms; a second is dozens of rounds).
	time.Sleep(1 * time.Second)

	// kill -9: no shutdown path runs; only the stable store survives.
	if err := procs[0].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	procs[0].Wait()

	// Load continues against the survivors (retransmission skips the dead
	// member).
	for i := preCrash + 1; i <= preCrash+postCrash; i++ {
		add(i)
	}

	// Restart replica 0 on the same address with the same store, in
	// recovery mode.
	_, output := spawnReplicaWatch(t, 0, peers, "-store", storeDir, "-recover")

	// A strict read pinned to the restarted replica, ordered after the full
	// chain: answered only once replica 0 has rejoined, and correct only if
	// the snapshot restored the pruned prefix.
	reader := cluster.FrontEnd("reader")
	reader.StickTo(core.ReplicaNode(0))
	_, v, err := submitWithDeadline(reader, dtype.CtrRead{}, prevOf(last), true, 30*time.Second)
	if err != nil {
		t.Fatalf("strict read after restart: %v", err)
	}
	if v != int64(total) {
		t.Fatalf("strict read at restarted replica = %v, want %d: snapshot recovery lost pruned history", v, total)
	}

	// The RECOVERED status line proves how the history came back: the
	// durable journal replays the descriptors replica 0 labeled itself
	// (they show up as retained), and the snapshot transfer must seed the
	// REST — ops labeled at the survivors, whose descriptors were pruned
	// everywhere before the restart. Together they must cover the whole
	// pre-crash history.
	deadline := time.Now().Add(10 * time.Second)
	var recovered string
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(output(), "\n") {
			if strings.HasPrefix(line, "RECOVERED") {
				recovered = line
				break
			}
		}
		if recovered != "" {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if recovered == "" {
		t.Fatalf("restarted replica never printed RECOVERED:\n%s", output())
	}
	var nReplicas, snapshots, seeded, retained int
	if _, err := fmt.Sscanf(recovered, "RECOVERED replicas=%d snapshots=%d seeded=%d retained=%d",
		&nReplicas, &snapshots, &seeded, &retained); err != nil {
		t.Fatalf("malformed status line %q: %v", recovered, err)
	}
	if snapshots == 0 || seeded == 0 {
		t.Fatalf("%s: expected a snapshot to seed the peer-labeled pruned history", recovered)
	}
	if seeded+retained < preCrash {
		t.Fatalf("%s: journal replay + snapshot cover %d ops, want the full pre-crash history (%d)", recovered, seeded+retained, preCrash)
	}
	if retained >= preCrash {
		t.Fatalf("%s: restarted replica re-learned %d descriptors — survivors had not pruned, the test no longer exercises snapshot recovery", recovered, retained)
	}
}

// TestKillNineMidBatchDurability is the group-commit durability test
// (DESIGN.md §10): a SINGLE replica on the shipped batched hot path
// acknowledges a batch of non-strict appends, then is SIGKILLed. With no peers, nothing
// was ever gossiped — the stable store's journal is the only place the
// acknowledged operations survive. The restarted replica must answer a
// strict read covering every acknowledged append from its own journal.
// Before descriptors were persisted this test fails: the store held labels
// only, so the VALUES of acknowledged operations died with the process.
func TestKillNineMidBatchDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	core.RegisterWire()
	peers := reservePorts(t, 1)
	storeDir := t.TempDir()
	storeArgs := []string{"-store", storeDir, "-type", "log"}
	proc := spawnReplica(t, 0, peers, storeArgs...)

	feNet, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer feNet.Close()
	feNet.SetPeer(core.ReplicaNode(0), peers[0])
	opts := core.BatchedOptions()
	cluster := core.NewCluster(core.ClusterConfig{
		Replicas:      1,
		DataType:      dtype.Log{},
		Network:       feNet,
		Options:       opts,
		LocalReplicas: []int{},
	})
	defer cluster.Close()
	feNet.Start()
	cluster.StartLiveRetransmit(core.RetransmitInterval)
	cluster.StartLiveBatchFlush(opts.FlushPeriod())
	fe := cluster.FrontEnd("load")

	// Causally chained appends, submitted at once so that they travel as a
	// batch — the first opens the replica target, the other 29 buffer
	// below the shipped batch size of 32 until the next flush — and every
	// one ACKNOWLEDGED before the kill.
	const acked = 30
	var last ops.ID
	resps := make([]chan core.Response, acked)
	for i := range resps {
		ch := make(chan core.Response, 1)
		resps[i] = ch
		x := fe.Submit(dtype.LogAppend{Entry: fmt.Sprintf("d%02d", i)}, prevOf(last), false, func(r core.Response) { ch <- r })
		last = x.ID
	}
	for i, ch := range resps {
		select {
		case r := <-ch:
			if r.Err != nil {
				t.Fatalf("append %d: %v", i, r.Err)
			}
			if fmt.Sprint(r.Value) != fmt.Sprint(i+1) { // LogAppend answers the new length
				t.Fatalf("append %d returned %v, want %d", i, r.Value, i+1)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("append %d never acknowledged", i)
		}
	}
	if sent := feNet.Stats().Sent; sent >= acked {
		t.Fatalf("front end sent %d frames for %d appends: no batch was in flight", sent, acked)
	}

	// kill -9 mid-batch: no shutdown path, no gossip ever left (n=1). Only
	// the group-commit journal survives.
	if err := proc.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	proc.Wait()

	restartArgs := append(append([]string{}, storeArgs...), "-recover")
	spawnReplicaWatch(t, 0, peers, restartArgs...)

	// A strict read causally after the whole chain: answerable only once the
	// journal replay has re-introduced every acknowledged append.
	_, v, err := submitWithDeadline(fe, dtype.LogRead{}, prevOf(last), true, 30*time.Second)
	if err != nil {
		t.Fatalf("strict read after restart: %v (acknowledged appends lost across kill -9)", err)
	}
	s := fmt.Sprint(v)
	if strings.Count(s, "|") != acked-1 {
		t.Fatalf("strict read after restart = %q, want all %d acknowledged appends", s, acked)
	}
	for i := 0; i < acked; i++ {
		if !strings.Contains(s, fmt.Sprintf("d%02d", i)) {
			t.Fatalf("acknowledged append d%02d missing after restart: %q", i, s)
		}
	}
}

// prevOf wraps a possibly-zero id as a prev set.
func prevOf(id ops.ID) []ops.ID {
	if id == (ops.ID{}) {
		return nil
	}
	return []ops.ID{id}
}

func TestParseOp(t *testing.T) {
	good := []struct {
		dt, line string
		want     dtype.Operator
	}{
		{"counter", "add 5", dtype.CtrAdd{N: 5}},
		{"counter", "double", dtype.CtrDouble{}},
		{"counter", "read", dtype.CtrRead{}},
		{"register", "write hello", dtype.RegWrite{Val: "hello"}},
		{"register", "read", dtype.RegRead{}},
		{"set", "add x", dtype.SetAdd{Elem: "x"}},
		{"set", "contains x", dtype.SetContains{Elem: "x"}},
		{"log", "append e1", dtype.LogAppend{Entry: "e1"}},
		{"log", "len", dtype.LogLen{}},
		{"bank", "deposit acct 100", dtype.BankDeposit{Account: "acct", Amount: 100}},
		{"bank", "balance acct", dtype.BankBalance{Account: "acct"}},
		{"directory", "setattr a k v", dtype.DirSetAttr{Name: "a", Key: "k", Val: "v"}},
		{"directory", "list", dtype.DirList{}},
	}
	for _, tc := range good {
		got, err := parseOp(tc.dt, tc.line)
		if err != nil {
			t.Errorf("parseOp(%q, %q): %v", tc.dt, tc.line, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseOp(%q, %q) = %#v, want %#v", tc.dt, tc.line, got, tc.want)
		}
	}
	bad := []struct{ dt, line string }{
		{"counter", "add"},
		{"counter", "add five"},
		{"counter", "frobnicate"},
		{"register", "write"},
		{"bank", "deposit acct"},
		{"nosuch", "read"},
	}
	for _, tc := range bad {
		if op, err := parseOp(tc.dt, tc.line); err == nil {
			t.Errorf("parseOp(%q, %q) = %#v, want error", tc.dt, tc.line, op)
		}
	}
}

func TestParseFlagsValidation(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{}, "-peers is required"},
		{[]string{"-peers", "a:1,b:2"}, "-id -1 out of range"},
		{[]string{"-peers", "a:1,b:2", "-id", "5"}, "-id 5 out of range"},
		{[]string{"-peers", "a:1,,b:2", "-id", "0"}, "entry 1 is empty"},
		{[]string{"-peers", "a:1", "-id", "0", "-type", "nosuch"}, "unknown data type"},
		{[]string{"-peers", "a:1,b:2", "-client", "c", "-recover"}, "apply to replicas"},
		{[]string{"-peers", "a:1,b:2", "-client", "c", "-store", "/tmp/x"}, "apply to replicas"},
		{[]string{"-peers", "a:1,b:2", "-id", "0", "-recover"}, "-recover requires -store"},
		{[]string{"-peers", "a:1,b:2", "-id", "0", "-store-sync=false"}, "needs -store"},
		{[]string{"-peers", "a:1,b:2", "-id", "0", "-shards", "0"}, "-shards 0 must be at least 1"},
		{[]string{"-peers", "a:1,b:2", "-id", "0", "-shards", "-3"}, "must be at least 1"},
		{[]string{"-peers", "a:1,b:2", "-id", "0", "-gossip", "-5ms"}, "-gossip -5ms must be positive"},
		{[]string{"-peers", "a:1,b:2", "-id", "0", "-gossip", "0s"}, "must be positive"},
		{[]string{"-peers", "a:1,b:2", "-id", "0", "-snapshot-cap", "4096"}, "flag provided but not defined: -snapshot-cap"},
		{[]string{"-peers", "a:1,b:2", "-id", "0", "-snapshot=false"}, "flag provided but not defined: -snapshot"},
		{[]string{"-peers", "a:1,b:2", "-id", "0", "-compact-gossip=false"}, "flag provided but not defined: -compact-gossip"},
		{[]string{"-peers", "a:1,b:2", "-id", "0", "-batch", "8"}, "flag provided but not defined: -batch"},
		{[]string{"-peers", "a:1,b:2", "-id", "0", "-batch-delay", "2ms"}, "flag provided but not defined: -batch-delay"},
		{[]string{"-peers", "a:1,b:2", "-id", "0", "-workers", "2"}, "flag provided but not defined: -workers"},
		{[]string{"-peers", "a:1,b:2", "-id", "0", "-memoize=false"}, "flag provided but not defined: -memoize"},
		{[]string{"-peers", "a:1,b:2", "-id", "0", "-prune=false"}, "flag provided but not defined: -prune"},
		{[]string{"-peers", "a:1,b:2", "-id", "0", "-commute"}, "flag provided but not defined: -commute"},
		{[]string{"-peers", "a:1,b:2", "-resize", "-2"}, "-resize -2 is negative"},
		{[]string{"-peers", "a:1,b:2", "-resize", "1"}, "grow to 2 or more"},
		{[]string{"-peers", "a:1,b:2", "-resize", "4", "-id", "0"}, "admin command"},
		{[]string{"-peers", "a:1,b:2", "-resize", "4", "-client", "c"}, "admin command"},
		{[]string{"-peers", "a:1,b:2", "-resize", "4", "-store", "/tmp/x"}, "admin command"},
		{[]string{"-peers", "a:1,b:2", "-id", "0", "-place", "-1"}, "-place -1 is negative"},
		{[]string{"-peers", "a:1,b:2", "-id", "0", "-place", "3"}, "more replicas per shard than the fleet has members"},
		{[]string{"-peers", "a:1,b:2", "-resize", "4", "-place", "2"}, "admin command"},
		{[]string{"-peers", manyPeers(65), "-id", "0"}, "65 replicas per shard, at most 64"},
		{[]string{"-peers", manyPeers(70), "-id", "0", "-place", "65"}, "65 replicas per shard, at most 64"},
	}
	for _, tc := range cases {
		_, err := parseFlags(tc.args, os.Stderr)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("parseFlags(%v) err = %v, want containing %q", tc.args, err, tc.wantErr)
		}
	}
	cfg, err := parseFlags([]string{"-peers", "a:1,b:2,c:3", "-id", "1"}, os.Stderr)
	if err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	if cfg.listen != "b:2" {
		t.Errorf("listen defaulted to %q, want the replica's own peers entry", cfg.listen)
	}
	if _, err := parseFlags([]string{"-peers", manyPeers(70), "-id", "0", "-place", "3"}, os.Stderr); err != nil {
		t.Errorf("a 70-member fleet placing 3 replicas per shard rejected: %v", err)
	}
	if _, err := parseFlags([]string{"-peers", "a:1,b:2", "-resize", "4"}, os.Stderr); err != nil {
		t.Errorf("valid -resize admin flags rejected: %v", err)
	}
}

// TestShippedConfiguration pins every member kind to internal/core's table
// of shipped values: a member started with only -peers and -id (or
// -client) runs the table's gossip period and batched options. The esds
// package's test of the same name pins esds.New and the benchmark to the
// same table.
func TestShippedConfiguration(t *testing.T) {
	for _, args := range [][]string{
		{"-peers", "a:1,b:2,c:3", "-id", "1"},
		{"-peers", "a:1,b:2,c:3", "-client", "c"},
	} {
		cfg, err := parseFlags(args, os.Stderr)
		if err != nil {
			t.Fatalf("parseFlags(%v): %v", args, err)
		}
		if cfg.gossip != core.GossipInterval || cfg.opts != core.BatchedOptions() {
			t.Errorf("parseFlags(%v): gossip %v, options %+v; want %v, %+v",
				args, cfg.gossip, cfg.opts, core.GossipInterval, core.BatchedOptions())
		}
	}
}

// timerLog is a timers fake that records which Start* calls a member made.
type timerLog []string

func (l *timerLog) StartLiveGossip(d time.Duration) {
	*l = append(*l, fmt.Sprintf("gossip %v", d))
}

func (l *timerLog) StartLiveRetransmit(d time.Duration) {
	*l = append(*l, fmt.Sprintf("retransmit %v", d))
}

func (l *timerLog) StartLiveBatchFlush(d time.Duration) {
	*l = append(*l, fmt.Sprintf("flush %v", d))
}

// TestStartTimers pins which timers each kind of member starts: gossip on
// every replica member, and retransmission and the batch flusher on every
// member that creates front ends — clients, and keyspace replica members,
// whose migration driver submits strict KeyInstalls under -resize. A
// keyspace replica member without retransmission would block Resize
// forever on one lost install frame.
func TestStartTimers(t *testing.T) {
	gossip := fmt.Sprintf("gossip %v", core.GossipInterval)
	retransmit := fmt.Sprintf("retransmit %v", core.RetransmitInterval)
	flush := fmt.Sprintf("flush %v", core.BatchedOptions().BatchDelay)
	shapes := []struct {
		name  string
		flags []string
	}{
		{"unsharded", nil},
		{"sharded", []string{"-shards", "4"}},
		{"placed", []string{"-shards", "4", "-place", "2"}},
	}
	members := []struct {
		name  string
		flags []string
	}{
		{"client", []string{"-client", "c"}},
		{"replica", []string{"-id", "0"}},
	}
	want := map[string][]string{
		"client/unsharded":  {retransmit, flush},
		"client/sharded":    {retransmit, flush},
		"client/placed":     {retransmit, flush},
		"replica/unsharded": {gossip},
		"replica/sharded":   {gossip, retransmit, flush},
		"replica/placed":    {gossip, retransmit, flush},
	}
	for _, m := range members {
		for _, shape := range shapes {
			name := m.name + "/" + shape.name
			args := append([]string{"-peers", "a:1,b:2,c:3"}, m.flags...)
			cfg, err := parseFlags(append(args, shape.flags...), os.Stderr)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var got timerLog
			startTimers(&got, cfg)
			if !reflect.DeepEqual([]string(got), want[name]) {
				t.Errorf("%s starts %q, want %q", name, got, want[name])
			}
		}
	}
}

// TestRecoverRejectsFreshStore pins the -recover guard: recovering
// against a store directory with no persisted labels is not a restart —
// it could re-issue pre-crash labels (§9.3) — and must be refused with a
// clear error instead of silently joining.
func TestRecoverRejectsFreshStore(t *testing.T) {
	fresh := t.TempDir()
	var stderr strings.Builder
	code := run([]string{"-id", "0", "-peers", "127.0.0.1:1,127.0.0.1:2", "-store", fresh, "-recover"},
		strings.NewReader(""), io.Discard, &stderr)
	if code == 0 {
		t.Fatal("recover on a fresh store directory succeeded")
	}
	if !strings.Contains(stderr.String(), "no label files") {
		t.Fatalf("error does not explain the fresh store: %q", stderr.String())
	}
	// A missing directory is refused the same way.
	stderr.Reset()
	code = run([]string{"-id", "0", "-peers", "127.0.0.1:1,127.0.0.1:2", "-store", fresh + "/nope", "-recover"},
		strings.NewReader(""), io.Discard, &stderr)
	if code == 0 || !strings.Contains(stderr.String(), "cannot read -store") {
		t.Fatalf("missing store dir: code=%d stderr=%q", code, stderr.String())
	}
}

// TestResizeAdminAgainstCluster is the multi-process live-resharding
// test: three members serving a 2-shard keyspace are grown to 4 shards by
// the `-resize` admin command while holding state, and a STALE front end
// (started with -shards 2, never told about the resize) keeps operating —
// it learns the new topology from Redirect replies and reads back every
// object's pre-resize state through the migration.
func TestResizeAdminAgainstCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	// Members run the shipped batched hot path (DESIGN.md §8): member 0
	// becomes the migration driver, whose strict KeyInstall submissions
	// ride batch buffers — the replica-mode flush ticker must move them, or
	// INSTALL stalls until the resize deadline (a live-drive regression).
	peers := reservePorts(t, 3)
	var watch0 func() string
	for i := 0; i < 3; i++ {
		if i == 0 {
			_, watch0 = spawnReplicaWatch(t, i, peers, "-shards", "2")
		} else {
			spawnReplica(t, i, peers, "-shards", "2")
		}
	}

	// Seed objects through a (stale-to-be) client. Each object's strict
	// read names the seeding add in its prev set (the client chains prev
	// per object), so its answer means the add is done, with its label, at
	// every replica: every label issued afterwards is greater, and the
	// stale client's reads below are ordered after the adds. Without it a
	// read from another session, which names no prev, may legally be
	// ordered before an add its replica has not heard of yet, and read 0.
	var out1 strings.Builder
	seed := "obj:a add 1\nobj:b add 2\nobj:c add 3\nobj:d add 4\nobj:a read!\nobj:b read!\nobj:c read!\nobj:d read!\n"
	if code := run([]string{"-client", "seed", "-shards", "2", "-peers", strings.Join(peers, ",")},
		strings.NewReader(seed), &out1, os.Stderr); code != 0 {
		t.Fatalf("seeding client exited %d\n%s", code, out1.String())
	}
	seeded := strings.Split(strings.TrimSpace(out1.String()), "\n")
	if len(seeded) != 9 { // READY + eight responses
		t.Fatalf("seeding client printed %d lines:\n%s", len(seeded), out1.String())
	}
	for i, w := range []string{"= 1", "= 2", "= 3", "= 4"} {
		if !strings.HasSuffix(seeded[i+5], w) {
			t.Fatalf("seed read %d = %q, want suffix %q\nall:\n%s", i, seeded[i+5], w, out1.String())
		}
	}

	// Grow 2 → 4 online.
	var adminOut strings.Builder
	if code := run([]string{"-resize", "4", "-peers", strings.Join(peers, ",")},
		strings.NewReader(""), &adminOut, os.Stderr); code != 0 {
		t.Fatalf("resize admin exited %d\n%s", code, adminOut.String())
	}
	if !strings.Contains(adminOut.String(), "RESIZED shards=4") {
		t.Fatalf("admin output lacks RESIZED line:\n%s", adminOut.String())
	}
	// The member's own RESIZED status line lands asynchronously: the admin
	// reply races the replica's stdout flush, so poll rather than snapshot.
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(watch0(), "RESIZED shards=4"); {
		if time.Now().After(deadline) {
			t.Fatalf("member 0 never printed its RESIZED line:\n%s", watch0())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A stale client (still -shards 2) must read every object back and
	// write through the migration.
	var out2 strings.Builder
	check := "obj:a read!\nobj:b read!\nobj:c read!\nobj:d read!\nobj:d add 6\nobj:d read!\n"
	if code := run([]string{"-client", "stale", "-shards", "2", "-peers", strings.Join(peers, ",")},
		strings.NewReader(check), &out2, os.Stderr); code != 0 {
		t.Fatalf("stale client exited %d\n%s", code, out2.String())
	}
	lines := strings.Split(strings.TrimSpace(out2.String()), "\n")
	if len(lines) != 7 { // READY + six responses
		t.Fatalf("stale client printed %d lines:\n%s", len(lines), out2.String())
	}
	wants := []string{"= 1", "= 2", "= 3", "= 4", "= ok", "= 10"}
	for i, w := range wants {
		if !strings.HasSuffix(lines[i+1], w) {
			t.Fatalf("stale line %d = %q, want suffix %q\nall:\n%s", i+1, lines[i+1], w, out2.String())
		}
	}

	// A fresh client started with the NEW shard count works too.
	var out3 strings.Builder
	if code := run([]string{"-client", "fresh", "-shards", "4", "-peers", strings.Join(peers, ",")},
		strings.NewReader("obj:d read!\n"), &out3, os.Stderr); code != 0 {
		t.Fatalf("fresh client exited %d\n%s", code, out3.String())
	}
	if !strings.HasSuffix(strings.TrimSpace(out3.String()), "= 10") {
		t.Fatalf("fresh client read = %q, want suffix \"= 10\"", out3.String())
	}
}

// TestShardedClientModeAgainstCluster drives the -shards keyspace variant
// end to end: three member processes each hosting their replica of every
// shard, and a keyspace front end routing named objects by consistent
// hash. Strict reads carry per-object prev chains, so each must observe
// exactly its own object's writes.
func TestShardedClientModeAgainstCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	peers := reservePorts(t, 3)
	for i := 0; i < 3; i++ {
		spawnReplica(t, i, peers, "-shards", "4")
	}

	var stdout strings.Builder
	script := strings.NewReader("cart:1 add 2\ncart:1 add 3\ncart:2 add 10\ncart:1 read!\ncart:2 read!\n")
	code := run([]string{"-client", "cli", "-shards", "4", "-peers", strings.Join(peers, ",")}, script, &stdout, os.Stderr)
	if code != 0 {
		t.Fatalf("sharded client mode exited %d\noutput:\n%s", code, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 6 { // READY + five responses
		t.Fatalf("client printed %d lines:\n%s", len(lines), stdout.String())
	}
	if !strings.HasPrefix(lines[0], "READY client=cli shards=4") {
		t.Fatalf("READY line = %q", lines[0])
	}
	if !strings.HasSuffix(lines[4], "= 5") {
		t.Fatalf("strict read of cart:1 = %q, want suffix %q", lines[4], "= 5")
	}
	if !strings.HasSuffix(lines[5], "= 10") {
		t.Fatalf("strict read of cart:2 = %q, want suffix %q", lines[5], "= 10")
	}
	// Object lines carry the owning shard; the two objects' shard
	// assignments must be consistent between front end and replicas (the
	// responses proved routing worked — this checks the printed form).
	if !strings.HasPrefix(lines[4], "cart:1@") || !strings.HasPrefix(lines[5], "cart:2@") {
		t.Fatalf("response lines lack object@shard prefixes:\n%s", stdout.String())
	}
}

// TestPlacedClientModeAgainstCluster runs a placed fleet (-place: each shard
// on 2 of the 3 member processes, placement map agreed from the flags alone)
// and drives it through a -client front end, which must route every object
// to a hosting member. The strict reads prove the placed deployment serves
// the full keyspace even though no single member hosts it.
func TestPlacedClientModeAgainstCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	peers := reservePorts(t, 3)
	for i := 0; i < 3; i++ {
		spawnReplica(t, i, peers, "-shards", "4", "-place", "2")
	}

	var stdout strings.Builder
	script := strings.NewReader("cart:1 add 2\ncart:1 add 3\ncart:2 add 10\ncart:1 read!\ncart:2 read!\n")
	code := run([]string{"-client", "cli", "-shards", "4", "-place", "2", "-peers", strings.Join(peers, ",")}, script, &stdout, os.Stderr)
	if code != 0 {
		t.Fatalf("placed client mode exited %d\noutput:\n%s", code, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 6 { // READY + five responses
		t.Fatalf("client printed %d lines:\n%s", len(lines), stdout.String())
	}
	if !strings.HasSuffix(lines[4], "= 5") {
		t.Fatalf("strict read of cart:1 = %q, want suffix %q", lines[4], "= 5")
	}
	if !strings.HasSuffix(lines[5], "= 10") {
		t.Fatalf("strict read of cart:2 = %q, want suffix %q", lines[5], "= 10")
	}
}

// manyPeers returns a -peers list of n loopback members.
func manyPeers(n int) string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", 7000+i)
	}
	return strings.Join(addrs, ",")
}
