package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// daemon is one seacma-serve process started by the benchmark, with an
// HTTP client sized for the workloads' two connections (one writer or
// job client, one reader).
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	done   chan struct{} // closed once cmd.Wait returned
}

// startDaemon launches the daemon on a free loopback port and waits
// until /healthz answers.
func startDaemon(serveBin, workDir string) (*daemon, error) {
	addrFile := filepath.Join(workDir, fmt.Sprintf("addr-%d-%d.txt", os.Getpid(), time.Now().UnixNano()))
	defer os.Remove(addrFile)
	cmd := exec.Command(serveBin, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-jobs", "1")
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	// The daemon must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{
		cmd:    cmd,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: 170 * time.Second},
		done:   make(chan struct{}),
	}
	go func() {
		_ = cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		b, err := os.ReadFile(addrFile)
		if err == nil && len(b) > 0 {
			d.base = "http://" + strings.TrimSpace(string(b))
			break
		}
		select {
		case <-d.done:
			return nil, errors.New("daemon exited before listening")
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("daemon did not write its address in 20s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("daemon /healthz not ready in 20s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends the daemon and waits until it has exited: SIGTERM (the
// daemon drains, which is immediate with no job in flight), SIGKILL
// after 10 s.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// procStat is the daemon's CPU time and peak resident set, read from
// /proc.
type procStat struct {
	cpuSec    float64
	peakRSSMB float64
}

func (d *daemon) stat() (procStat, error) {
	pid := d.cmd.Process.Pid
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 per second
	// on Linux).
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(fields) < 13 {
		return procStat{}, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return procStat{}, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	out := procStat{cpuSec: (ut + st) / 100}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procStat{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return procStat{}, fmt.Errorf("bad VmHWM %q", line)
			}
			out.peakRSSMB = kb / 1024
		}
	}
	return out, nil
}

// do sends one request and decodes a JSON reply into out (nil = drain),
// failing on any status other than want.
func (d *daemon) do(method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// jobTiming splits one job's latency into the wait for its terminal
// state and the report fetch.
type jobTiming struct {
	wait, fetch time.Duration
}

// runJob submits spec, polls the job until it finishes and fetches its
// report bytes. The job is timed from submit until the report is read.
func (d *daemon) runJob(spec serve.JobSpec) (id string, report []byte, t jobTiming, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", nil, t, err
	}
	start := time.Now()
	var view serve.JobView
	if err := d.do("POST", "/v1/jobs", body, http.StatusAccepted, &view); err != nil {
		return "", nil, t, err
	}
	for {
		if err := d.do("GET", "/v1/jobs/"+view.ID, nil, http.StatusOK, &view); err != nil {
			return view.ID, nil, t, err
		}
		if view.State == serve.StateFailed {
			return view.ID, nil, t, fmt.Errorf("job %s failed: %s", view.ID, view.Error)
		}
		if view.State == serve.StateDone {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.wait = time.Since(start)
	if err := d.do("GET", "/v1/jobs/"+view.ID+"/report", nil, http.StatusOK, &report); err != nil {
		return view.ID, nil, t, err
	}
	t.fetch = time.Since(start) - t.wait
	return view.ID, report, t, nil
}

// events reads a world's whole observation log through the paginated
// GET /v1/observations API.
func (d *daemon) events(world string) ([]serve.ObservationRecord, error) {
	var out []serve.ObservationRecord
	after := uint64(0)
	for {
		var page struct {
			Total        int                       `json:"total"`
			Observations []serve.ObservationRecord `json:"observations"`
		}
		path := fmt.Sprintf("/v1/observations?world=%s&after=%d&limit=1000", world, after)
		if err := d.do("GET", path, nil, http.StatusOK, &page); err != nil {
			return nil, err
		}
		out = append(out, page.Observations...)
		if len(page.Observations) == 0 || len(out) >= page.Total {
			return out, nil
		}
		after = page.Observations[len(page.Observations)-1].Seq
	}
}

// campaigns lists campaign summaries: a finished job's discovery-time
// campaigns (job != "") or a world's live projection.
func (d *daemon) campaigns(job, world string) ([]serve.CampaignSummary, error) {
	var body struct {
		Campaigns []serve.CampaignSummary `json:"campaigns"`
	}
	path := "/v1/campaigns?job=" + job
	if job == "" {
		path = "/v1/campaigns?world=" + world
	}
	if err := d.do("GET", path, nil, http.StatusOK, &body); err != nil {
		return nil, err
	}
	return body.Campaigns, nil
}
