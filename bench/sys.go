package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// peakRSSMiB is the process's resident-set high-water mark. It never
// falls, so a reading taken right after the measured phase excludes
// whatever runs later in the process.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// procIO is the part of /proc/self/io the benchmark uses: bytes passed
// to write-family syscalls (files and sockets alike) and the number of
// read- and write-family syscalls.
type procIO struct {
	wchar, syscr, syscw uint64
}

func readProcIO() (procIO, error) {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return procIO{}, err
	}
	var io procIO
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		name, val, ok := bytes.Cut(line, []byte(": "))
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(string(bytes.TrimSpace(val)), 10, 64)
		if err != nil {
			return procIO{}, fmt.Errorf("/proc/self/io: %q: %w", line, err)
		}
		switch string(name) {
		case "wchar":
			io.wchar = n
		case "syscr":
			io.syscr = n
		case "syscw":
			io.syscw = n
		}
	}
	return io, nil
}

func (a procIO) sub(b procIO) procIO {
	return procIO{wchar: a.wchar - b.wchar, syscr: a.syscr - b.syscr, syscw: a.syscw - b.syscw}
}
