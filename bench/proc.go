//go:build linux

package main

import (
	"bytes"
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

// buildDir holds everything a run leaves behind — the rdfserve binary,
// generated dataset files, server logs, result documents — and is the
// one name the root .gitignore has to know.
const buildDir = ".bench_build"

// serverLog, under buildDir, collects the stderr of every child of one
// run (several children overlap, so each appends).
const serverLog = "rdfserve.log"

// clockTick is USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
const clockTick = 100

// procCPU reads the CPU time a process has consumed so far, all
// threads. This is how the server's CPU cost is measured from outside:
// the load generator's own cycles never enter it. The per-thread
// scheduler clocks (/proc/<pid>/task/*/schedstat) count nanoseconds;
// where the kernel does not keep them the 10 ms ticks of
// /proc/<pid>/stat are the fallback.
func procCPU(pid int) (time.Duration, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var total time.Duration
	for _, path := range tasks {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		total += time.Duration(ns)
	}
	if total > 0 {
		return total, nil
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(raw)
}

// parseProcStat extracts utime+stime from a /proc/<pid>/stat line. The
// comm field may contain spaces and parentheses, so fields are counted
// from the last ')'.
func parseProcStat(raw []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no comm field")
	}
	f := strings.Fields(string(raw[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("proc stat: short line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc stat: bad utime/stime")
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// procStatusKB reads one "Vm*" line of /proc/<pid>/status in kB
// (VmHWM: peak resident set; VmRSS: current).
func procStatusKB(pid int, key string) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(raw, key)
}

func parseStatusKB(raw []byte, key string) (int64, error) {
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// selfCPU is the bench process's own CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// buildServer compiles the unmodified cmd/rdfserve into buildDir and
// returns the binary's path. The go tool's build cache makes repeat
// builds of an unchanged tree cheap, and always asking it means a run
// never measures a stale binary.
func buildServer() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "rdfserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rdfserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building rdfserve: %v\n%s", err, out)
	}
	return bin, nil
}

// child is one running rdfserve process.
type child struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	done chan error
	boot bootSample
}

// bootSample is one cold boot measured at the moment /healthz first
// answers 200.
type bootSample struct {
	Seconds float64 `json:"seconds"`
	CPUSec  float64 `json:"cpu_s"`
	RSSMB   float64 `json:"rss_mb"`
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

// startServer boots rdfserve over dataPath with the given extra flags
// and waits until /healthz answers 200. The boot time runs from just
// before the process is started to that answer. The child is killed
// with the bench (Pdeathsig), so an aborted run leaves nothing behind.
func startServer(bin, dataPath string, flags []string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.OpenFile(filepath.Join(buildDir, serverLog), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{"-data", dataPath, "-addr", addr}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { c.done <- cmd.Wait() }()

	// A fresh client per boot: no connection of a previous child is
	// ever reused against this port.
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(120 * time.Second)
	for {
		resp, err := hc.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case werr := <-c.done:
			return nil, fmt.Errorf("rdfserve exited during boot: %v (see %s/%s)", werr, buildDir, serverLog)
		default:
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, errors.New("rdfserve did not become healthy within 120s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.boot.Seconds = time.Since(start).Seconds()
	cpu, err := procCPU(cmd.Process.Pid)
	if err != nil {
		c.stop()
		return nil, err
	}
	rss, err := procStatusKB(cmd.Process.Pid, "VmRSS")
	if err != nil {
		c.stop()
		return nil, err
	}
	c.boot.CPUSec = cpu.Seconds()
	c.boot.RSSMB = float64(rss) / 1024
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stop kills the child and waits until it has ended.
func (c *child) stop() {
	c.cmd.Process.Kill()
	<-c.done
}

// gitCommit names the tree a result was measured on. The acceptance
// driver's checkout is not a git repository; there it is "unknown".
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
