package main

import (
	"testing"
	"time"
)

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tsfcpd\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 50 {
		t.Fatalf("parseVmHWM = %g, %v; want 50 MB", got, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("missing VmHWM accepted")
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := "4242 (sfc pd) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 75 0 0 20 0 8 0 12345 0 0"
	got, err := parseStatCPU(stat)
	if err != nil || got != 3250*time.Millisecond {
		t.Fatalf("parseStatCPU = %v, %v; want 3.25s", got, err)
	}
}
