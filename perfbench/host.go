package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// cpuTimes reads the CPU time counters of one CPU (cpu >= 0) or of the
// whole machine (cpu < 0) from /proc/stat, in clock ticks: busy is time
// spent running (user, nice, system, irq, softirq; guest time is inside
// user), steal is time the CPU had work but the hypervisor ran
// something else on it. ok is false where the counters are not
// available.
func cpuTimes(cpu int) (steal, busy int64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	label := "cpu"
	if cpu >= 0 {
		label += strconv.Itoa(cpu)
	}
	var fields []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if fields = strings.Fields(sc.Text()); len(fields) > 0 && fields[0] == label {
			break
		}
		fields = nil
	}
	if len(fields) < 9 {
		return 0, 0, false
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(fields[i+1], 10, 64); err != nil {
			return 0, 0, false
		}
	}
	// user nice system idle iowait irq softirq steal
	return v[7], v[0] + v[1] + v[2] + v[5] + v[6], true
}

// stealShare is the share of the CPU time the machine wanted that the
// hypervisor did not give it.
func stealShare(steal, busy int64) float64 {
	if steal <= 0 || steal+busy <= 0 {
		return 0
	}
	return float64(steal) / float64(steal+busy)
}
