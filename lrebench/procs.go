package main

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one running lred process. Its address is read from the
// "serving on http://ADDR" line it logs once it listens (it is started
// on port 0), and the rest of its stderr is kept for error reports.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string

	mu     sync.Mutex
	tail   []string
	exited chan struct{}
}

// startProc runs bin with args and waits until it logs its listen address.
func startProc(name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	// A benchmark killed from outside must not leave servers behind.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.tail = append(p.tail, line)
			if len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
			if i := strings.Index(line, "serving on http://"); i >= 0 && !sent {
				f := strings.Fields(line[i+len("serving on http://"):])
				if len(f) > 0 {
					addrc <- f[0]
					sent = true
				}
			}
		}
		p.cmd.Wait()
		close(p.exited)
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before listening: %s", name, p.logTail())
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not listen within 60s: %s", name, p.logTail())
	}
}

func (p *proc) logTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

func (p *proc) url(path string) string { return "http://" + p.addr + path }

// waitStatus polls path until it answers 200 or timeout passes.
func (p *proc) waitStatus(path string, timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := c.Get(p.url(path))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited: %s", p.name, p.logTail())
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s: %s not 200 within %s", p.name, path, timeout)
}

// stop sends SIGTERM (lred drains and exits 0) and waits for the exit,
// escalating to SIGKILL if the drain hangs.
func (p *proc) stop() {
	if p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
}

// cpu is the process's user+system CPU time from /proc/<pid>/stat (all
// threads), at clock-tick resolution.
func (p *proc) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	const clkTck = 100 // USER_HZ on every Linux ABI Go supports
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// hwmMB is the process's peak resident set (VmHWM) in MB.
func (p *proc) hwmMB() (float64, error) {
	return statusMB(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
}

func statusMB(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in " + path)
}
