package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hotspot/internal/simd"
)

// conditions are printed with every result so a slow run can be traced to
// the host that made it.
type conditions struct {
	SIMD       string  `json:"simd"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	StealShare float64 `json:"steal_share"`
}

func hostConditions(steal float64) conditions {
	return conditions{
		SIMD:       simd.Active(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		StealShare: steal,
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

// cpuTicks reads the host-wide steal and total jiffies from /proc/stat;
// ok is false where the file is missing (non-Linux hosts).
func cpuTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealShare returns the share of host CPU time stolen by the hypervisor
// between two cpuTicks readings.
func stealShare(s0, t0, s1, t1 uint64) float64 {
	if t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter measures one op: wall time, process CPU time and the live heap
// at the op's peak. The live heap is read after each GC cycle; the peak is
// the 95th percentile of those readings, the largest heap that at least
// one cycle in twenty saw. Their maximum moves by 10-20% between
// identical runs: objects allocated while a concurrent mark runs count as
// live in that cycle, so the largest reading depends on where a mark
// happened to fall. The 95th percentile moves by about 2%.
type meter struct {
	start time.Time
	cpu   time.Duration
	stop  chan struct{}
	done  sync.WaitGroup
	lives []float64 // live heap after each GC cycle, bytes
}

func startMeter() *meter {
	m := &meter{stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	cycle := sample[0].Value.Uint64()
	m.lives = append(m.lives, float64(sample[1].Value.Uint64()))
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for done := false; !done; {
			select {
			case <-m.stop:
				done = true
			case <-tick.C:
			}
			metrics.Read(sample)
			if c := sample[0].Value.Uint64(); c != cycle {
				cycle = c
				m.lives = append(m.lives, float64(sample[1].Value.Uint64()))
			}
		}
	}()
	m.start, m.cpu = time.Now(), processCPU()
	return m
}

// end stops the meter and returns wall seconds, CPU seconds and the peak
// live heap in MB.
func (m *meter) end() (wall, cpu, peakMB float64) {
	wall = time.Since(m.start).Seconds()
	cpu = (processCPU() - m.cpu).Seconds()
	close(m.stop)
	m.done.Wait()
	sort.Float64s(m.lives)
	p95 := m.lives[int(math.Ceil(0.95*float64(len(m.lives))))-1]
	return wall, cpu, p95 / (1 << 20)
}
