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
	"syscall"
	"time"
)

// daemon is one rallocd process started on default flags, listening on
// a free loopback port, and the HTTP client that talks to it.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	client *http.Client
}

// startDaemon launches bin and waits until /healthz answers. conns
// bounds the client's connections to the daemon.
func startDaemon(bin string, conns int) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := tryStartDaemon(bin, conns)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStartDaemon(bin string, conns int) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-listen", addr)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rallocd: %w", err)
	}
	d := &daemon{
		cmd:    cmd,
		base:   "http://" + addr,
		exited: make(chan struct{}),
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status of a stopped daemon carries no information
		close(d.exited)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("rallocd on %s exited during start-up", addr)
		default:
		}
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("rallocd on %s not healthy after 10s", addr)
}

// freeAddr returns a loopback address whose port was free a moment ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("find a free port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// stop asks the daemon to drain and exit, kills it after a grace
// period, and waits until the process has ended.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an exited process is what we want
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // see above
		<-d.exited
	}
}

// post sends one /allocate request and returns the status and body.
func (d *daemon) post(body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.base+"/allocate", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("read response: %w", err)
	}
	return resp.StatusCode, raw, nil
}

// snapshot is the part of the daemon's /metrics JSON the benchmark
// reads.
type snapshot struct {
	Counters   map[string]int64 `json:"counters"`
	Gauges     map[string]int64 `json:"gauges"`
	Histograms map[string]struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

// metrics fetches the daemon's telemetry snapshot.
func (d *daemon) metrics() (*snapshot, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &snap, nil
}

// memStats reads the daemon's runtime.MemStats counters from the heap
// profile's debug rendering.
func (d *daemon) memStats() (totalAlloc, numGC float64, err error) {
	resp, err := d.client.Get(d.base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 4 || f[0] != "#" || f[2] != "=" {
			continue
		}
		v, perr := strconv.ParseFloat(f[3], 64)
		if perr != nil {
			continue
		}
		switch f[1] {
		case "TotalAlloc":
			totalAlloc, found = v, found+1
		case "NumGC":
			numGC, found = v, found+1
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, fmt.Errorf("read heap profile: %w", err)
	}
	if found != 2 {
		return 0, 0, errors.New("heap profile lacks TotalAlloc or NumGC")
	}
	return totalAlloc, numGC, nil
}

// cpuSeconds returns the user plus system CPU time process pid has
// used, summed over its threads.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	var ticks float64
	for _, x := range f[11:13] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc stat: %w", err)
		}
		ticks += v
	}
	return ticks / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times; Linux fixes it at
// 100 on every architecture Go supports.
const clockTicks = 100

func selfCPU() (float64, error) { return cpuSeconds(os.Getpid()) }

// vmHWM returns the peak resident set size of process pid in MiB.
func vmHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

var (
	resultPrefix = []byte(`{"result":`)
	hitsMarker   = []byte(`,"cacheHits":`)
)

// splitResponse cuts a served /allocate body into the raw bytes of its
// Result and its cache counters, without a JSON round trip.
func splitResponse(raw []byte) (result []byte, hits, misses int, err error) {
	i := bytes.LastIndex(raw, hitsMarker)
	if !bytes.HasPrefix(raw, resultPrefix) || i < len(resultPrefix) {
		return nil, 0, 0, fmt.Errorf("unexpected response shape: %.120s", raw)
	}
	var tail struct {
		CacheHits   int `json:"cacheHits"`
		CacheMisses int `json:"cacheMisses"`
	}
	if err := json.Unmarshal(append([]byte{'{'}, raw[i+1:]...), &tail); err != nil {
		return nil, 0, 0, fmt.Errorf("parse cache counters: %w", err)
	}
	return raw[len(resultPrefix):i], tail.CacheHits, tail.CacheMisses, nil
}
