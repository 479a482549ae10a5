package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"time"
)

// child is one re-executed copy of this binary, seen from the parent.
type child struct {
	role   string
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after exited closes
}

// spawn starts the binary in role, hands it cfg and decodes its
// one-line answer into ready.
func spawn(role string, cfg, ready any) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-role", role)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", role, err)
	}
	c := &child{role: role, cmd: cmd, stdin: stdin, exited: make(chan struct{})}
	line := make(chan []byte, 1) // one send, never blocks the reader
	go func() {
		b, _ := bufio.NewReader(stdout).ReadBytes('\n')
		line <- b
		// Wait closes the pipe, so it must follow the read.
		c.err = cmd.Wait()
		close(c.exited)
	}()
	if err := json.NewEncoder(stdin).Encode(cfg); err != nil {
		c.stop()
		return nil, fmt.Errorf("spawn %s: send config: %w", role, err)
	}
	select {
	case b := <-line:
		if err := json.Unmarshal(b, ready); err != nil {
			c.stop()
			return nil, fmt.Errorf("spawn %s: child did not come up (see its stderr): %w", role, err)
		}
	case <-time.After(60 * time.Second):
		c.stop()
		return nil, fmt.Errorf("spawn %s: no answer within 60s", role)
	}
	return c, nil
}

// alive reports whether the child is still running.
func (c *child) alive() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

// stop closes the child's standard input, which asks it to shut down,
// and waits until it has exited; a child that ignores the request for
// ten seconds is killed.
func (c *child) stop() error {
	c.stdin.Close()
	select {
	case <-c.exited:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
		return fmt.Errorf("%s child had to be killed", c.role)
	}
	return c.err
}

// rig is the booted three-process stack: this process generates load,
// the grid child is the fixture, the sut child is what is measured.
type rig struct {
	grid, sut *child
	base      string // the system under test's front door
	gridSide  string
	sutSide   string
	httpc     *http.Client
}

// bootRig spawns the grid with cfg's users and tracing, then the system
// under test with cfg pointed at that grid.
func bootRig(cfg sutConfig, httpc *http.Client) (*rig, error) {
	var gr gridReady
	grid, err := spawn("grid", gridConfig{Users: cfg.Users, Trace: cfg.Trace}, &gr)
	if err != nil {
		return nil, err
	}
	cfg.Endpoints = gr.Endpoints
	var sr sutReady
	sut, err := spawn("sut", cfg, &sr)
	if err != nil {
		grid.stop()
		return nil, err
	}
	return &rig{
		grid: grid, sut: sut,
		base: sr.BaseURL, gridSide: gr.Side, sutSide: sr.Side,
		httpc: httpc,
	}, nil
}

// close stops both children, system under test first so its grid
// connections close against a live peer.
func (r *rig) close() error {
	return errors.Join(r.sut.stop(), r.grid.stop())
}

// childrenAlive is part of every run's validity check.
func (r *rig) childrenAlive() error {
	for _, c := range []*child{r.grid, r.sut} {
		if !c.alive() {
			return fmt.Errorf("%s child exited during the run: %v", c.role, c.err)
		}
	}
	return nil
}

// getJSON decodes one GET response into v.
func (r *rig) getJSON(url string, v any) error {
	resp, err := r.httpc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return fmt.Errorf("GET %s: http %d: %s", url, resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (r *rig) snap(side string) (procSnap, error) {
	var s procSnap
	err := r.getJSON(side+"/bench/snap", &s)
	return s, err
}
