package calib

import "testing"

func TestFingerprintSane(t *testing.T) {
	fp := Fingerprint()
	if fp.GOMAXPROCS < 1 || fp.NumCPU < 1 {
		t.Errorf("implausible fingerprint: %+v", fp)
	}
	if fp.GOOS == "" || fp.GOARCH == "" {
		t.Errorf("fingerprint missing GOOS/GOARCH: %+v", fp)
	}
}
