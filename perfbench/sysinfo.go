package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rld/internal/netrt"
)

// environment is what a result depends on besides the code; compare
// refuses to set two outputs side by side when it differs.
type environment struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	WALFS      string `json:"wal_fs"`
}

// mismatch names the first field two environments differ in that makes
// their results incomparable ("" when comparable). Seeds may differ.
func (e environment) mismatch(o environment) string {
	switch {
	case e.Workload != o.Workload:
		return "workload"
	case e.Seconds != o.Seconds:
		return "seconds"
	case e.Trace != o.Trace:
		return "trace"
	case e.Nproc != o.Nproc:
		return "nproc"
	case e.GOMAXPROCS != o.GOMAXPROCS:
		return "gomaxprocs"
	case e.GoVersion != o.GoVersion:
		return "go_version"
	case e.OS != o.OS:
		return "os"
	case e.WALFS != o.WALFS:
		return "wal_fs"
	}
	return ""
}

func currentEnvironment(w *workload, seed int64, seconds, trace int, walDir string) environment {
	return environment{
		Workload:   w.name,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		WALFS:      fsType(walDir),
	}
}

// fsMagic names the filesystems a WAL directory is likely to sit on, by
// statfs magic number.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTick = 100

// cpuTime returns user+system CPU used so far by this process and by its
// worker processes: the live ones from /proc, the reaped ones from
// RUSAGE_CHILDREN.
func cpuTime() time.Duration {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	d := tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
	for _, pid := range netrt.LiveWorkers() {
		d += procCPU(pid)
	}
	return d
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// procCPU reads a live process's utime+stime from /proc/<pid>/stat.
func procCPU(pid int) time.Duration {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	// Fields after the command name start at field 3 (state); utime and
	// stime are fields 14 and 15.
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * time.Second / clockTick
}

// peakRSSMB returns this process's peak resident memory plus that of its
// largest worker process, in MiB.
func peakRSSMB() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	worker := kids.Maxrss
	for _, pid := range netrt.LiveWorkers() {
		if kb := procHWM(pid); kb > worker {
			worker = kb
		}
	}
	return float64(self.Maxrss+worker) / 1024
}

// procHWM reads a live process's peak RSS (VmHWM, KiB).
func procHWM(pid int) int64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb
			}
		}
	}
	return 0
}

// heapAllocs returns the number of heap objects this process has
// allocated so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
