package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// memoryFS is where durable workloads keep their data dirs. The
// sandbox disk is a shared virtual device whose flush time is someone
// else's noise (3988/2832/3724 acked ops/s over three runs, against
// 21.5k/19.8k/21.6k here), so the WAL's own code path and commit window
// are what is measured, and device flush time is not claimed.
const memoryFS = "/dev/shm"

func deviceOf(path string) (uint64, error) {
	var st syscall.Stat_t
	if err := syscall.Stat(path, &st); err != nil {
		return 0, err
	}
	return uint64(st.Dev), nil
}

// chooseDataDir returns a fresh data dir for a durable workload and the
// name of the filesystem it is on ("" and "none" for volatile ones). It
// refuses a dir on the same device as / unless allowDisk is set.
func chooseDataDir(w workload, allowDisk bool) (dir, fs string, err error) {
	if !w.durable {
		return "", "none", nil
	}
	parent, fs := memoryFS, "tmpfs:"+memoryFS
	if st, serr := os.Stat(memoryFS); serr != nil || !st.IsDir() {
		parent, fs = os.TempDir(), "disk:"+os.TempDir()
	}
	root, err1 := deviceOf("/")
	dev, err2 := deviceOf(parent)
	if (err1 != nil || err2 != nil || root == dev) && !allowDisk {
		return "", "", fmt.Errorf("%s: data dir parent %s is on the same device as / (or could not be checked): "+
			"acked-write timings there measure a shared disk's flush queue, not this code; "+
			"mount a tmpfs at %s or pass -allow-disk to measure anyway", w.name, parent, memoryFS)
	}
	dir, err = os.MkdirTemp(parent, "plsbench-")
	return dir, fs, err
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// environment records the conditions a result was taken under.
func environment(w workload, opt runOptions, clients, windows int, dataFS string, plain, traced *phase, setups []float64, warmFailed int64) map[string]string {
	drain := plain.drainNs
	if traced != nil {
		drain = max(drain, traced.drainNs)
	}
	return map[string]string{
		"env.nproc":            fmt.Sprint(runtime.NumCPU()),
		"env.gomaxprocs":       fmt.Sprint(runtime.GOMAXPROCS(0)),
		"env.go":               runtime.Version(),
		"env.kernel":           kernelRelease(),
		"env.data_fs":          dataFS,
		"env.clients":          fmt.Sprint(clients),
		"env.windows":          fmt.Sprintf("%d x %v", windows, windowLen),
		"env.seed":             fmt.Sprint(opt.seed),
		"env.keys":             fmt.Sprint(w.keys),
		"env.setups_raw_s":     fmt.Sprintf("%.3f", setups),
		"env.warmup_failed":    fmt.Sprint(warmFailed),
		"env.slowest_drain_ms": fmt.Sprintf("%.3f", float64(drain)/1e6),
	}
}
