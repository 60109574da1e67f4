package main

import (
	"bytes"
	"context"
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

// daemon is one sfcpd process the benchmark started, with the fresh data
// directory it serves from.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string
	flags   []string
	log     *bytes.Buffer
	exited  chan struct{}
	waitErr error
	stopped sync.Once
}

// startDaemon execs sfcpd with its default flags plus a loopback address
// and -data-dir on a new directory under workDir, and returns once
// /healthz answers 200. It reports how long that took.
func startDaemon(bin, workDir string) (*daemon, time.Duration, error) {
	dataDir, err := os.MkdirTemp(workDir, "data-")
	if err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, 0, err
	}
	d := &daemon{
		base:    "http://127.0.0.1:" + strconv.Itoa(port),
		dataDir: dataDir,
		flags:   []string{"-addr", "127.0.0.1:" + strconv.Itoa(port), "-data-dir", dataDir},
		log:     &bytes.Buffer{},
		exited:  make(chan struct{}),
	}
	d.cmd = exec.Command(bin, d.flags...)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dataDir)
		return nil, 0, fmt.Errorf("starting sfcpd: %w", err)
	}
	go func() { d.waitErr = d.cmd.Wait(); close(d.exited) }()
	hc := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-d.exited:
			os.RemoveAll(dataDir)
			return nil, 0, fmt.Errorf("sfcpd exited during start-up (%v): %s", d.waitErr, d.log.String())
		default:
		}
		if resp, err := hc.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, errors.New("sfcpd did not answer /healthz within 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop shuts sfcpd down with SIGTERM (SIGKILL after 10s), waits for it to
// exit, and removes its data directory. Calls after the first do nothing.
func (d *daemon) stop() {
	d.stopped.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
		os.RemoveAll(d.dataDir)
	})
}

// metrics scrapes and parses /metrics.
func (d *daemon) metrics(ctx context.Context, hc *http.Client) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return parseProm(string(body))
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(data))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest) // "123456 kB"
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime reads the process's user plus system CPU time.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may contain spaces, so fields are counted from
// its closing parenthesis: utime and stime are fields 14 and 15.
func parseStatCPU(stat string) (time.Duration, error) {
	cut := strings.LastIndexByte(stat, ')')
	if cut < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(stat[cut+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}
