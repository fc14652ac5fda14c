package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one tvgserve process started by the benchmark.
type server struct {
	cmd     *exec.Cmd
	base    string // http://host:port of the service listener
	debug   string // http://host:port of the -pprof listener (/debug/metrics)
	dataDir string // the server's -data-dir ("" when memory-only)
	started time.Time

	logDone chan struct{}
	mu      sync.Mutex
	tail    []string // last lines of the server's log, for error reports
}

var (
	serviceAddrRE = regexp.MustCompile(`tvgserve: listening on (\S+)`)
	debugAddrRE   = regexp.MustCompile(`tvgserve: pprof listening on (\S+)`)
)

// startServer execs tvgserve on ephemeral loopback ports and returns
// once the service listener is bound. started is taken just before the
// exec, so readiness is timed from the start of the process.
func startServer(bin string, args []string) (*server, error) {
	argv := append([]string{"-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0"}, args...)
	s := &server{cmd: exec.Command(bin, argv...), logDone: make(chan struct{})}
	// The server dies with the driver, so no run leaves one behind.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addrs := make(chan string, 2) // the two listener lines, read once each
	go s.readLog(stderr, addrs)
	timeout := time.After(30 * time.Second)
	for s.base == "" || s.debug == "" {
		select {
		case line, ok := <-addrs:
			if !ok {
				s.kill()
				return nil, fmt.Errorf("tvgserve exited before listening: %s", s.logTail())
			}
			if m := debugAddrRE.FindStringSubmatch(line); m != nil {
				s.debug = "http://" + m[1]
			} else if m := serviceAddrRE.FindStringSubmatch(line); m != nil {
				s.base = "http://" + m[1]
			}
		case <-timeout:
			s.kill()
			return nil, fmt.Errorf("tvgserve did not report its listeners: %s", s.logTail())
		}
	}
	return s, nil
}

// readLog drains the server's log for the life of the process (a full
// pipe would block the server), forwarding the listener lines.
func (s *server) readLog(r io.Reader, addrs chan<- string) {
	defer close(s.logDone)
	defer close(addrs)
	sc := bufio.NewScanner(r)
	sent := 0
	for sc.Scan() {
		line := sc.Text()
		s.mu.Lock()
		s.tail = append(s.tail, line)
		if len(s.tail) > 20 {
			s.tail = s.tail[1:]
		}
		s.mu.Unlock()
		if sent < 2 && strings.Contains(line, "listening on") {
			addrs <- line
			sent++
		}
	}
	io.Copy(io.Discard, r)
}

func (s *server) logTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, " | ")
}

// waitReady polls /healthz every millisecond until it answers 200 and
// returns the time since exec: the readiness wait resolves to about a
// millisecond plus one loopback round trip.
func (s *server) waitReady(cl *http.Client, limit time.Duration) (time.Duration, error) {
	deadline := time.Now().Add(limit)
	for {
		resp, err := cl.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(s.started), nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("tvgserve not ready after %s (last error %v): %s", limit, err, s.logTail())
		}
		time.Sleep(time.Millisecond)
	}
}

// scrape reads the server's Prometheus exposition into a map keyed by
// the series name with its labels, e.g.
// `tvg_engine_cache_hits_total{cache="schedule"}`.
func (s *server) scrape(cl *http.Client) (map[string]float64, error) {
	resp, err := cl.Get(s.debug + "/debug/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /debug/metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
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
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// peakRSSMB reads the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// stop shuts the server down gracefully (SIGTERM, so the WAL is synced
// and closed) and waits for it; a server that does not exit within ten
// seconds is killed.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		<-s.logDone
		return err
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-done
		<-s.logDone
		return fmt.Errorf("tvgserve ignored SIGTERM for 10s: %s", s.logTail())
	}
}

// kill ends the server at once and waits for it; used for servers that
// only served a set-up measurement, and on error paths.
func (s *server) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
	<-s.logDone
}
