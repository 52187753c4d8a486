package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one asmserve child process.
type server struct {
	cmd        *exec.Cmd
	base       string // http://127.0.0.1:port
	journalDir string
	exited     chan struct{}
	waitErr    error
}

// buildServer compiles cmd/asmserve from the repository at root into bin.
func buildServer(ctx context.Context, root, bin string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/asmserve")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build ./cmd/asmserve: %w\n%s", err, out)
	}
	return nil
}

// freeAddr returns a loopback address whose port was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer spawns asmserve for w, with any journal under scratch, and
// waits until /healthz answers. The child is killed if the benchmark dies.
func startServer(ctx context.Context, bin, scratch string, w workload) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	journalDir, err := os.MkdirTemp(scratch, "wal-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, w.serverArgs(addr, journalDir)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout, cmd.Stderr = nil, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start asmserve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, journalDir: journalDir, exited: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			s.cleanup()
			return nil, fmt.Errorf("asmserve exited before it was healthy: %v", s.waitErr)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("asmserve not healthy after 30s")
		}
	}
}

// statusMB reads a memory field of /proc/<pid>/status, such as VmRSS
// or VmHWM (the peak resident set), in MB.
func statusMB(pid int, field string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), field+":")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s %q: %w", field, rest, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, waits for the process to exit (SIGKILL after 10s)
// and removes its journal directory.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.cleanup()
}

func (s *server) cleanup() { _ = os.RemoveAll(s.journalDir) } // scratch only
