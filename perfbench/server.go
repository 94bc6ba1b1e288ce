package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fairrank/internal/service"
)

// child is a running fairrankd.
type child struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	setup time.Duration
	log   *tail
	done  chan struct{} // closed once the process has exited
	err   error         // Wait's result, valid after done
}

// startChild execs fairrankd with the default cohorts on a free loopback
// port and returns once /readyz answers 200. setup is measured from exec
// to that first 200; readiness is polled every millisecond.
func startChild(bin string, w workload, e env) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-synth", "school,compas", "-addr", "127.0.0.1:" + port}
	if w.batching {
		args = append(args, "-batch-size", "2", "-batch-wait", "2ms")
	}
	c := &child{base: "http://127.0.0.1:" + port, log: &tail{max: 8 << 10}, done: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(e.ServerGOMAXPROCS))
	// If the benchmark dies without stopping it, the kernel kills fairrankd.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.cmd.Stdout, c.cmd.Stderr = c.log, c.log

	poll := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 2 * time.Second}
	t0 := time.Now()
	e.onServerCPU(func() { err = c.cmd.Start() })
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	deadline := t0.Add(60 * time.Second)
	for {
		resp, err := poll.Get(c.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.setup = time.Since(t0)
				return c, nil
			}
		}
		select {
		case <-c.done:
			return nil, fmt.Errorf("fairrankd exited before ready (%v): %s", c.err, c.log)
		default:
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("fairrankd not ready after 60s: %s", c.log)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, which drains fairrankd gracefully, and waits for the
// process to exit; after 15 s it is killed.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-c.done:
	case <-time.After(15 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// peakRSSMiB reads the child's VmHWM from /proc/<pid>/status.
func (c *child) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// health fetches /healthz.
func (c *child) health(cl *http.Client) (service.HealthResponse, error) {
	var h service.HealthResponse
	return h, getJSON(cl, c.base+"/healthz", &h)
}

// passCounts sums the ranking and merge counters of every dataset from
// /v1/datasets rank_stats.
func (c *child) passCounts(cl *http.Client) (rankings, merges int64, err error) {
	return datasetPasses(func(dst any) error { return getJSON(cl, c.base+"/v1/datasets", dst) })
}

func datasetPasses(get func(dst any) error) (rankings, merges int64, err error) {
	var ds []service.DatasetInfo
	if err := get(&ds); err != nil {
		return 0, 0, err
	}
	for _, d := range ds {
		if d.RankStats != nil {
			rankings += d.RankStats.RankingCount
			merges += d.RankStats.MergeCount
		}
	}
	return rankings, merges, nil
}

func getJSON(cl *http.Client, url string, dst any) error {
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, dst)
}

// newClient returns a keep-alive client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 60 * time.Second,
	}
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// tail keeps the last max bytes written to it: fairrankd's log, shown
// only when the process fails.
type tail struct {
	mu  sync.Mutex
	max int
	buf bytes.Buffer
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf.Write(p)
	if over := t.buf.Len() - t.max; over > 0 {
		t.buf.Next(over)
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.String()
}
