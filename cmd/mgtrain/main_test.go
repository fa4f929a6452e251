package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"testing"

	"mgdiffnet/internal/core"
)

func TestParseStrategy(t *testing.T) {
	cases := map[string]core.Strategy{
		"base": core.Base, "v": core.V, "w": core.W, "f": core.F,
		"half-v": core.HalfV, "halfv": core.HalfV, "HV": core.HalfV,
		" V ": core.V,
	}
	for in, want := range cases {
		got, err := parseStrategy(in)
		if err != nil || got != want {
			t.Fatalf("parseStrategy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseStrategy("zigzag"); err == nil {
		t.Fatal("expected error for unknown strategy")
	}
}

// Invalid flag combinations must exit 2 with a one-line error on stderr,
// never a panic stack trace.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := map[string][]string{
		"bad dim":               {"-dim", "4"},
		"bad strategy":          {"-strategy", "zigzag"},
		"zero levels":           {"-levels", "0"},
		"indivisible res":       {"-res", "60", "-levels", "3"},
		"zero samples":          {"-samples", "0"},
		"zero batch":            {"-batch", "0"},
		"nonpositive lr":        {"-lr", "0"},
		"zero max epochs":       {"-max-epochs", "0"},
		"zero restriction":      {"-restriction-epochs", "0"},
		"zero patience":         {"-patience", "0"},
		"zero cycles":           {"-cycles", "0"},
		"zero filters":          {"-filters", "0"},
		"zero workers":          {"-workers", "0"},
		"zero checkpoint-every": {"-checkpoint-every", "0", "-checkpoint", "x.ck"},
		"resume sans path":      {"-resume"},
		"coarsest below min":    {"-res", "16", "-levels", "3"}, // coarsest 4 < U-Net minimum 8
		"unknown flag":          {"-no-such-flag"},

		"unknown transport":   {"-transport", "udp"},
		"tcp without rank":    {"-transport", "tcp", "-peers", "a:1,b:2"},
		"tcp without peers":   {"-transport", "tcp", "-rank", "0"},
		"rank out of range":   {"-transport", "tcp", "-rank", "2", "-peers", "a:1,b:2"},
		"negative rank":       {"-transport", "tcp", "-rank", "-1", "-peers", "a:1,b:2"},
		"duplicate peer":      {"-transport", "tcp", "-rank", "0", "-peers", "a:1,a:1"},
		"empty peer address":  {"-transport", "tcp", "-rank", "0", "-peers", "a:1,,b:2"},
		"tcp with workers":    {"-transport", "tcp", "-rank", "0", "-peers", "a:1,b:2", "-workers", "2"},
		"inproc with rank":    {"-rank", "0"},
		"inproc with peers":   {"-peers", "a:1,b:2"},
		"inproc with elastic": {"-elastic"},
		"elastic sans ck":     {"-transport", "tcp", "-rank", "0", "-peers", "a:1,b:2", "-elastic"},
		"tight hb timeout":    {"-transport", "tcp", "-rank", "0", "-peers", "a:1,b:2", "-heartbeat-timeout", "500ms", "-heartbeat-interval", "400ms"},
		"zero dial timeout":   {"-transport", "tcp", "-rank", "0", "-peers", "a:1,b:2", "-dial-timeout", "0"},
	}
	for name, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("%s: exit code %d, want 2 (stderr: %q)", name, code, errw.String())
		}
		if strings.Contains(errw.String(), "goroutine") {
			t.Errorf("%s: stderr shows a stack trace: %q", name, errw.String())
		}
	}
}

func tinyArgs(extra ...string) []string {
	args := []string{
		"-dim", "2", "-strategy", "half-v", "-res", "8", "-levels", "1",
		"-samples", "2", "-batch", "2", "-filters", "2",
		"-max-epochs", "1", "-restriction-epochs", "1",
	}
	return append(args, extra...)
}

func TestRunTinyTraining(t *testing.T) {
	var out, errw bytes.Buffer
	model := t.TempDir() + "/model.bin"
	if code := run(tinyArgs("-o", model), &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw.String())
	}
	if !strings.Contains(out.String(), "done: final loss") {
		t.Fatalf("missing summary in output: %q", out.String())
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("model not written: %v", err)
	}
}

// The per-level timing lines come from a map; they must print in ascending
// level order on every run and every rank, not in map iteration order.
func TestRunPrintsLevelsInOrder(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(tinyArgs("-res", "32", "-levels", "3"), &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw.String())
	}
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "  level ") {
			got = append(got, line[:strings.Index(line, ":")])
		}
	}
	want := []string{"  level 1", "  level 2", "  level 3"}
	if !slices.Equal(got, want) {
		t.Fatalf("level lines %q, want %q", got, want)
	}
}

func TestRunCheckpointAndResume(t *testing.T) {
	ck := t.TempDir() + "/run.ck"
	var out1, err1 bytes.Buffer
	// -resume with no checkpoint yet starts fresh.
	if code := run(tinyArgs("-checkpoint", ck, "-resume"), &out1, &err1); code != 0 {
		t.Fatalf("first run exit %d, stderr %q", code, err1.String())
	}
	if !strings.Contains(out1.String(), "starting fresh") {
		t.Fatalf("missing fresh-start notice: %q", out1.String())
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	// Resuming a completed run finishes immediately with the saved report.
	var out2, err2 bytes.Buffer
	if code := run(tinyArgs("-checkpoint", ck, "-resume"), &out2, &err2); code != 0 {
		t.Fatalf("resume exit %d, stderr %q", code, err2.String())
	}
	if !strings.Contains(out2.String(), "done: final loss") {
		t.Fatalf("missing summary after resume: %q", out2.String())
	}
}

func TestRunDistributedWorkers(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(tinyArgs("-workers", "2"), &out, &errw); code != 0 {
		t.Fatalf("workers=2 exit %d, stderr %q", code, errw.String())
	}
	if !strings.Contains(out.String(), "2 workers") {
		t.Fatalf("missing worker count in banner: %q", out.String())
	}
}

// freeLoopbackAddrs reserves n distinct loopback ports by binding and
// releasing them; the small race against other tests is acceptable.
func freeLoopbackAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestRunTCPTwoRanks drives the full launcher path end to end: two run()
// invocations, each one rank of a TCP world on loopback, training the tiny
// problem to completion. Only rank 0 writes the model.
func TestRunTCPTwoRanks(t *testing.T) {
	addrs := freeLoopbackAddrs(t, 2)
	peers := strings.Join(addrs, ",")
	model := t.TempDir() + "/model.bin"

	type result struct {
		code int
		out  string
		err  string
	}
	results := make(chan result, 2)
	for rank := 0; rank < 2; rank++ {
		go func(rank int) {
			var out, errw bytes.Buffer
			args := tinyArgs("-transport", "tcp", "-rank", fmt.Sprint(rank),
				"-peers", peers, "-dial-timeout", "20s")
			if rank == 0 {
				args = append(args, "-o", model)
			}
			code := run(args, &out, &errw)
			results <- result{code, out.String(), errw.String()}
		}(rank)
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != 0 {
			t.Fatalf("tcp rank exited %d\nstdout: %s\nstderr: %s", r.code, r.out, r.err)
		}
		if !strings.Contains(r.out, "done: final loss") {
			t.Fatalf("missing summary: %q", r.out)
		}
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("rank 0 did not write the model: %v", err)
	}
}
