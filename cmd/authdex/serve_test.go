package main

import (
	"context"
	"flag"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"syscall"
	"testing"
	"time"

	authorindex "repro"
	"repro/internal/httpapi"
	"repro/internal/obs"
)

// fakeEnv is a getenv for precedence tests.
func fakeEnv(m map[string]string) func(string) string {
	return func(k string) string { return m[k] }
}

// parseServe parses args through the same FlagSet wiring cmdServe uses
// and applies the given environment.
func parseServe(t *testing.T, args []string, env map[string]string) *serveConfig {
	t.Helper()
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	cfg := serveFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := applyEnv(fs, cfg, fakeEnv(env)); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestServeConfigPrecedence pins the rule: explicit flag > environment
// variable > built-in default, per setting.
func TestServeConfigPrecedence(t *testing.T) {
	// Defaults with nothing set.
	cfg := parseServe(t, nil, nil)
	if cfg.addr != ":8377" || cfg.logLevel != "info" || cfg.readTimeout != 10*time.Second {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.slowlog != 250*time.Millisecond {
		t.Errorf("slowlog default = %v", cfg.slowlog)
	}

	// Environment fills unset flags.
	env := map[string]string{
		envAddr:        ":9000",
		envLogLevel:    "debug",
		envReadTimeout: "3s",
		envSlowlog:     "75ms",
	}
	cfg = parseServe(t, nil, env)
	if cfg.addr != ":9000" || cfg.logLevel != "debug" || cfg.readTimeout != 3*time.Second {
		t.Errorf("env fallback = %+v", cfg)
	}
	if cfg.slowlog != 75*time.Millisecond {
		t.Errorf("slowlog env fallback = %v", cfg.slowlog)
	}

	// Explicit flags beat the environment, per setting: addr comes from
	// the flag, the untouched settings still come from the environment.
	cfg = parseServe(t, []string{"-addr", ":7000", "-slowlog", "1s"}, env)
	if cfg.addr != ":7000" {
		t.Errorf("flag did not beat env: addr = %q", cfg.addr)
	}
	if cfg.slowlog != time.Second {
		t.Errorf("slowlog flag did not beat env: %v", cfg.slowlog)
	}
	if cfg.logLevel != "debug" || cfg.readTimeout != 3*time.Second {
		t.Errorf("env lost for unset flags: %+v", cfg)
	}

	// A flag explicitly set to its default value still beats the env.
	cfg = parseServe(t, []string{"-addr", ":8377", "-slowlog", "250ms"}, env)
	if cfg.addr != ":8377" {
		t.Errorf("explicit default did not beat env: addr = %q", cfg.addr)
	}
	if cfg.slowlog != 250*time.Millisecond {
		t.Errorf("explicit default slowlog did not beat env: %v", cfg.slowlog)
	}

	// A zero slowlog disables tracing's slow path entirely.
	cfg = parseServe(t, []string{"-slowlog", "0"}, env)
	if cfg.slowlog != 0 {
		t.Errorf("slowlog 0 = %v", cfg.slowlog)
	}
}

// TestServeConfigWriteTimeoutEnv pins the AUTHDEX_WRITE_TIMEOUT
// fallback for -write-timeout under the same precedence rules as the
// other settings.
func TestServeConfigWriteTimeoutEnv(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		env     map[string]string
		want    time.Duration
		wantErr bool
	}{
		{"default", nil, nil, 60 * time.Second, false},
		{"env fills unset flag", nil, map[string]string{envWriteTimeout: "5s"}, 5 * time.Second, false},
		{"flag beats env", []string{"-write-timeout", "2s"}, map[string]string{envWriteTimeout: "5s"}, 2 * time.Second, false},
		{"explicit default beats env", []string{"-write-timeout", "60s"}, map[string]string{envWriteTimeout: "5s"}, 60 * time.Second, false},
		{"bad env rejected", nil, map[string]string{envWriteTimeout: "soon"}, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("serve", flag.ContinueOnError)
			cfg := serveFlags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			err := applyEnv(fs, cfg, fakeEnv(tc.env))
			if tc.wantErr {
				if err == nil {
					t.Fatal("bad AUTHDEX_WRITE_TIMEOUT accepted")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if cfg.writeTimeout != tc.want {
				t.Errorf("writeTimeout = %v, want %v", cfg.writeTimeout, tc.want)
			}
		})
	}
}

// startServe runs serve() on a loopback port and returns the bound
// address and the channel its exit error lands on.
func startServe(t *testing.T, ctx context.Context, drain time.Duration) (string, chan error) {
	t.Helper()
	ix, err := authorindex.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg := &serveConfig{
		addr:         "127.0.0.1:0",
		readTimeout:  5 * time.Second,
		writeTimeout: 5 * time.Second,
		drainTimeout: drain,
	}
	api := httpapi.New(ix, httpapi.Config{Logger: logger, Registry: obs.NewRegistry()})
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- serve(ctx, api, ix, cfg, logger, addrCh) }()
	select {
	case addr := <-addrCh:
		return addr, done
	case err := <-done:
		t.Fatalf("serve exited before listening: %v", err)
		return "", nil
	}
}

// TestServeShutdownOnSignal: a real SIGTERM drains the server and
// serve returns nil with the listener closed and the index closed —
// the `kill -TERM` acceptance path.
func TestServeShutdownOnSignal(t *testing.T) {
	addr, done := startServe(t, context.Background(), 5*time.Second)

	resp, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve after SIGTERM = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not exit within the drain window after SIGTERM")
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestServeShutdownAbortsStragglers: a connection stuck mid-request
// cannot hold shutdown past the drain timeout; serve force-closes it
// and still exits cleanly.
func TestServeShutdownAbortsStragglers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := startServe(t, ctx, 300*time.Millisecond)

	// A half-sent request parks the connection in the active state.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /stats HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	// The server accepts connections in arrival order, so once a request
	// on a later connection is answered the straggler is accepted and
	// tracked; cancelling before that would let shutdown drop it unseen.
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	start := time.Now()
	cancel() // same path a signal takes: the serve ctx ends
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve = %v, want nil after forced drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("straggling connection held shutdown past the drain timeout")
	}
	if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
		t.Errorf("shutdown finished in %v, before the drain window could have expired", elapsed)
	}
}

func TestServeConfigBadSlowlogEnv(t *testing.T) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	cfg := serveFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	err := applyEnv(fs, cfg, fakeEnv(map[string]string{envSlowlog: "fast"}))
	if err == nil {
		t.Error("bad AUTHDEX_SLOWLOG accepted")
	}
}

func TestServeConfigBadEnvDuration(t *testing.T) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	cfg := serveFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	err := applyEnv(fs, cfg, fakeEnv(map[string]string{envReadTimeout: "not-a-duration"}))
	if err == nil {
		t.Error("bad AUTHDEX_READ_TIMEOUT accepted")
	}
}

func TestServeLoggerValidation(t *testing.T) {
	for _, ok := range []serveConfig{
		{logLevel: "debug", logFormat: "text"},
		{logLevel: "INFO", logFormat: "json"},
		{logLevel: "warn", logFormat: "TEXT"},
		{logLevel: "error", logFormat: "json"},
	} {
		if _, err := ok.logger(); err != nil {
			t.Errorf("logger(%+v): %v", ok, err)
		}
	}
	for _, bad := range []serveConfig{
		{logLevel: "verbose", logFormat: "text"},
		{logLevel: "info", logFormat: "xml"},
	} {
		if _, err := bad.logger(); err == nil {
			t.Errorf("logger(%+v) accepted", bad)
		}
	}
}
