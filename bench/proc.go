package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// This file owns every child process the benchmark starts: building the
// real dcserved binary, spawning it on an ephemeral loopback port with the
// shipped default flags, reading its CPU time and peak RSS from /proc,
// scraping its /metrics, and making sure it is dead when the harness exits.

// procs tracks the live children so an exit path or a signal can kill them.
var procs struct {
	mu   sync.Mutex
	live map[*server]struct{}
}

// stopAll kills every child still running. Safe to call more than once.
func stopAll() {
	procs.mu.Lock()
	var all []*server
	for s := range procs.live {
		all = append(all, s)
	}
	procs.mu.Unlock()
	for _, s := range all {
		s.kill()
	}
}

// buildServer compiles ./cmd/dcserved from the checkout into the
// benchmark's own output directory and returns the binary's path and the
// build's wall time. A warm Go build cache makes a repeat build a no-op
// relink check, so every run pays it and no run trusts a stale binary.
func buildServer(root, outDir string) (string, time.Duration, error) {
	bin := filepath.Join(outDir, "bin", "dcserved")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dcserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("build dcserved: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// server is one spawned dcserved.
type server struct {
	role    string // "server", "frontend", "w1", ...: names the log file and trace spans
	addr    string
	logPath string
	cmd     *exec.Cmd
	exited  chan struct{}
	spawned time.Time
	ready   time.Duration // exec → first 200 from /healthz

	scrapes int64 // harness probe requests sent to it, for reconciliation
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the child binds it, so a collision is possible but would
// fail the spawn loudly rather than corrupt a measurement.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts dcserved on a free port with only -addr, -store and the
// given extra flags (the workloads pass nothing beyond -workers/-seed),
// waits for /healthz, and registers the child for cleanup. Its stderr goes
// to <logDir>/<role>.log, truncated per spawn.
func spawn(bin, logDir, role, storeDir string, extra ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	return spawnAt(bin, logDir, role, addr, storeDir, extra...)
}

// spawnAt is spawn on an address picked beforehand, for peers that must
// name each other on their command lines.
func spawnAt(bin, logDir, role, addr, storeDir string, extra ...string) (*server, error) {
	s := &server{role: role, addr: addr,
		logPath: filepath.Join(logDir, role+".log"), exited: make(chan struct{})}
	logf, err := os.Create(s.logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{"-addr", addr, "-store", storeDir}, extra...)
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout = logf
	s.cmd.Stderr = logf
	// If the harness is SIGKILLed the deferred cleanup never runs; the
	// kernel then delivers the kill for us.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.spawned = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", role, err)
	}
	procs.mu.Lock()
	if procs.live == nil {
		procs.live = make(map[*server]struct{})
	}
	procs.live[s] = struct{}{}
	procs.mu.Unlock()
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitReady(10 * time.Second); err != nil {
		s.kill()
		return nil, fmt.Errorf("%s: %w\n%s", role, err, s.logTail(20))
	}
	return s, nil
}

// base is the server's URL root; url adds a path to it.
func (s *server) base() string { return "http://" + s.addr }

func (s *server) url(path string) string { return s.base() + path }

// waitReady polls /healthz until it answers 200.
func (s *server) waitReady(limit time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	for time.Since(s.spawned) < limit {
		select {
		case <-s.exited:
			return errors.New("exited before becoming ready")
		default:
		}
		resp, err := c.Get(s.url("/healthz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			s.scrapes++
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Since(s.spawned)
				c.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
	return fmt.Errorf("not ready within %v", limit)
}

// stop shuts the child down the way an operator would (SIGINT, graceful
// drain) and waits for it; a child that ignores the signal is killed.
func (s *server) stop() {
	select {
	case <-s.exited:
	default:
		s.cmd.Process.Signal(os.Interrupt)
		select {
		case <-s.exited:
		case <-time.After(10 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
		}
	}
	s.forget()
}

func (s *server) kill() {
	select {
	case <-s.exited:
	default:
		s.cmd.Process.Kill()
		<-s.exited
	}
	s.forget()
}

func (s *server) forget() {
	procs.mu.Lock()
	delete(procs.live, s)
	procs.mu.Unlock()
}

// logTail returns the last n lines of the child's log, for error reports.
func (s *server) logTail(n int) string {
	data, err := os.ReadFile(s.logPath)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return "--- " + s.logPath + " ---\n" + strings.Join(lines, "\n")
}

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux Go supports.
const clockTick = 100

func (s *server) cpu() (time.Duration, error) { return procCPU(s.cmd.Process.Pid) }

func (s *server) rssMiB() (float64, error) { return procRSSMiB(s.cmd.Process.Pid) }

// procCPU returns a process's user+system CPU time so far.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64) // field 14: utime
	st, err2 := strconv.ParseInt(f[12], 10, 64) // field 15: stime
	if err1 != nil || err2 != nil {
		return 0, errors.New("unreadable /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// procRSSMiB returns a process's peak resident set (VmHWM) in MiB.
func procRSSMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// promSample is one scrape of /metrics: "name" or `name{labels}` → value.
type promSample map[string]float64

// scrape reads the child's Prometheus exposition.
func (s *server) scrape() (promSample, error) {
	resp, err := http.Get(s.url("/metrics"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	s.scrapes++
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics answered %d", s.role, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("unreadable sample %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// snapshot is a child's state at one edge of a measured phase.
type snapshot struct {
	prom    promSample
	cpu     time.Duration
	scrapes int64
}

func (s *server) snapshot() (snapshot, error) {
	cpu, err := s.cpu()
	if err != nil {
		return snapshot{}, err
	}
	prom, err := s.scrape()
	if err != nil {
		return snapshot{}, err
	}
	return snapshot{prom: prom, cpu: cpu, scrapes: s.scrapes}, nil
}

// delta is the change of one counter family between two snapshots.
func delta(before, after snapshot, name string) float64 {
	return after.prom[name] - before.prom[name]
}
