package main

// hexserver as a subprocess: start it on a free loopback port, time
// exec to the first 200 from /readyz, scrape /stats and /metrics, read
// its peak RSS, and kill it.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running hexserver.
type serverProc struct {
	cmd   *exec.Cmd
	addr  string
	args  []string
	setup time.Duration
	done  chan error
}

// freeAddr returns a loopback address with a currently free port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs hexserver with args (plus -addr) and waits until
// /readyz answers 200. The server's log goes to logPath.
func startServer(bin, logPath string, args []string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", addr}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the server should hexperf die without reaching
	// kill (a panic or a signal).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, addr: addr, args: full, done: make(chan error, 1)}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start hexserver: %w", err)
	}
	go func() {
		p.done <- cmd.Wait()
		logf.Close()
	}()
	probe := &http.Client{Timeout: time.Second}
	for {
		select {
		case err := <-p.done:
			p.done <- err
			return nil, fmt.Errorf("hexserver exited during setup (%v); see %s", err, logPath)
		default:
		}
		if resp, err := probe.Get("http://" + addr + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.setup = time.Since(t0)
				probe.CloseIdleConnections()
				return p, nil
			}
		}
		if time.Since(t0) > 150*time.Second {
			p.kill()
			return nil, fmt.Errorf("hexserver not ready after %v; see %s", time.Since(t0), logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill stops the server with SIGKILL and waits for it to exit. The
// benchmark discards the store, so there is nothing to checkpoint.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // already exited is fine
	err := <-p.done
	p.done <- err
}

// peakRSSMB reads the server's VmHWM from /proc.
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// statsDoc is the part of hexserver's /stats the benchmark reads.
type statsDoc struct {
	Triples            int     `json:"triples"`
	DictionaryTerms    int     `json:"dictionaryTerms"`
	DiskBytesPerTriple float64 `json:"diskBytesPerTriple"`
	DeltaAdds          int     `json:"deltaAdds"`
	DeltaDels          int     `json:"deltaDels"`
	Cache              struct {
		PlanCacheHits       int64 `json:"planCacheHits"`
		PlanCacheMisses     int64 `json:"planCacheMisses"`
		ResultCacheHits     int64 `json:"resultCacheHits"`
		ResultCacheMisses   int64 `json:"resultCacheMisses"`
		ResultCacheBytes    int64 `json:"resultCacheBytes"`
		ResultCacheCapBytes int64 `json:"resultCacheCapBytes"`
		EpochChurn          int64 `json:"epochChurn"`
	} `json:"cache"`
	Govern struct {
		Rejected    int64 `json:"rejected"`
		SlowQueries int64 `json:"slowQueries"`
	} `json:"govern"`
	PerShard []struct {
		Delta *struct {
			DeltaAdds int `json:"deltaAdds"`
			DeltaDels int `json:"deltaDels"`
		} `json:"delta"`
	} `json:"perShard"`
}

// deltaSize is the pending delta (adds plus tombstones) over all
// overlays.
func (s *statsDoc) deltaSize() int {
	n := s.DeltaAdds + s.DeltaDels
	for _, sh := range s.PerShard {
		if sh.Delta != nil {
			n += sh.Delta.DeltaAdds + sh.Delta.DeltaDels
		}
	}
	return n
}

func getStats(c *http.Client, base string) (*statsDoc, error) {
	resp, err := c.Get(base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s statsDoc
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	return &s, nil
}

// promSample maps a Prometheus text series (name plus labels) to its
// value.
type promSample map[string]float64

func getMetrics(c *http.Client, base string) (promSample, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
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
			return nil, fmt.Errorf("parse /metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after[k] - before[k].
func (after promSample) delta(before promSample, k string) float64 { return after[k] - before[k] }

// cpuTicks reads the machine-wide busy and steal jiffies from
// /proc/stat. Steal is time the hypervisor ran someone else on this
// machine's CPUs; the provenance reports its share of a phase.
func cpuTicks() (total, steal float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealByWindow returns the share of CPU time the hypervisor stole in
// each of n equal windows of the next dur.
func stealByWindow(n int, dur time.Duration) []float64 {
	out := make([]float64, n)
	origin := time.Now()
	tot0, steal0 := cpuTicks()
	for i := range out {
		time.Sleep(time.Until(origin.Add(dur * time.Duration(i+1) / time.Duration(n))))
		tot1, steal1 := cpuTicks()
		out[i] = ratio(steal1-steal0, tot1-tot0)
		tot0, steal0 = tot1, steal1
	}
	return out
}
