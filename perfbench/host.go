package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostInfo is the metadata every result carries, so a number can be
// traced to the machine, toolchain, inputs and code that produced it.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	L3         string `json:"l3_cache"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
}

func collectHost(seed int64) hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		L3:         l3Size(),
		Seed:       seed,
		Commit:     gitCommit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// l3Size reads the last-level cache size the kernel reports for CPU 0.
func l3Size() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lvl, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil || strings.TrimSpace(string(lvl)) != "3" {
			continue
		}
		if size, err := os.ReadFile(filepath.Join(d, "size")); err == nil {
			return strings.TrimSpace(string(size))
		}
	}
	return "unknown"
}

// gitCommit returns the commit the benchmark was built from: the HEAD
// recorded in .git, or (a checkout without .git) a hash of the Go
// sources, which identifies the code as well.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return sourceHash()
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if c, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
		return strings.TrimSpace(string(c))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, r, ok := strings.Cut(line, " "); ok && r == name {
				return sha
			}
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's high-water resident set size in MiB
// (VmHWM), or 0 when /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// sourceHash is "tree-" plus a SHA-256 prefix over every go.mod and .go
// file under the working directory (hidden directories skipped), in
// path order.
func sourceHash() string {
	var paths []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil || len(paths) == 0 {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("tree-%x", h.Sum(nil)[:8])
}

// stealMeter reads the host's CPU steal from /proc/stat once per window
// while a run is timed: the share of the CPU time in each window that
// the hypervisor gave to other guests. Window k covers
// [start + k·window, start + (k+1)·window), the same windows the run's
// timeline is cut into.
type stealMeter struct {
	stop   chan struct{}
	done   chan struct{}
	shares []float64
}

func startStealMeter(start time.Time, window time.Duration) *stealMeter {
	s := &stealMeter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		if !s.wait(start) {
			return
		}
		prevSteal, prevTotal, ok := cpuTimes()
		if !ok {
			return
		}
		for k := 1; ; k++ {
			stopped := !s.wait(start.Add(time.Duration(k) * window))
			steal, total, ok := cpuTimes()
			if !ok {
				s.shares = nil
				return
			}
			s.shares = append(s.shares, ratio(float64(steal-prevSteal), float64(total-prevTotal)))
			prevSteal, prevTotal = steal, total
			if stopped {
				return
			}
		}
	}()
	return s
}

// wait sleeps until t and reports false if the meter was stopped first.
func (s *stealMeter) wait(t time.Time) bool {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-s.stop:
		return false
	}
}

// finish stops the meter, waits for it, and returns the steal share of
// every window so far (the last one partial), or nil where /proc/stat
// cannot be read.
func (s *stealMeter) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.shares
}

// cpuTimes returns the steal ticks and the total ticks (user through
// steal) of the aggregate "cpu" line of /proc/stat.
func cpuTimes() (steal, total int64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
	}
	steal, _ = strconv.ParseInt(fields[8], 10, 64)
	return steal, total, true
}
