package main

import (
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain runs the test binary as pboxd itself when PBOXD_TEST_MAIN is set,
// so a test can drive the daemon's real flag parsing in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("PBOXD_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestPprofFlag starts pboxd with -pprof and every other listener on an
// ephemeral port or off, and fetches the profile index from the pprof
// address.
func TestPprofFlag(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command(os.Args[0], "-pprof", addr, "-addr", "127.0.0.1:0",
		"-http", "", "-wire", "", "-incidents", "")
	cmd.Env = append(os.Environ(), "PBOXD_TEST_MAIN=1")
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}()

	var body string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		resp, err := http.Get("http://" + addr + "/debug/pprof/")
		if err != nil {
			continue
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /debug/pprof/ = %s", resp.Status)
		}
		body = string(b)
		break
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("no pprof index on %s (body %q); pboxd output:\n%s", addr, body, out.String())
	}
}
