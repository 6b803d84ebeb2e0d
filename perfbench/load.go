package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"time"
)

// queryPaths is the request mix, sent in this order round and round: the
// four pre-rendered snapshot endpoints and the documented trend-history range
// query, from cycle 0 to the latest with no step, as openhire-inspect
// timeline sends it.
var queryPaths = []string{
	"/api/trends",
	"/api/exposure",
	"/api/status",
	"/api/correlate",
	"/api/timeseries?metric=serve.trend.attack_events&from=0",
}

// query is one request of the open-loop stream. Latency runs from the
// request's due time, so a stall that delays later requests counts against
// them too; Lag is how late the generator sent it.
type query struct {
	Path    string        `json:"path"`
	Latency time.Duration `json:"latency_ns"`
	Lag     time.Duration `json:"lag_ns"`
	OK      bool          `json:"ok"`
}

// queryLoad is an open-loop query stream at a fixed rate over one client
// connection and one goroutine, started when ready closes and stopped by
// finish.
type queryLoad struct {
	base    string
	period  time.Duration
	client  *http.Client
	stop    chan struct{}
	done    chan struct{}
	queries []query
}

func startQueryLoad(base string, rate float64, ready <-chan struct{}) *queryLoad {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	q := &queryLoad{
		base:   base,
		period: time.Duration(float64(time.Second) / rate),
		client: &http.Client{Transport: tr, Timeout: 2 * time.Second},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go q.run(ready)
	return q
}

func (q *queryLoad) run(ready <-chan struct{}) {
	defer close(q.done)
	select {
	case <-ready:
	case <-q.stop:
		return
	}
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * q.period)
		timer.Reset(time.Until(due))
		select {
		case <-timer.C:
		case <-q.stop:
			return
		}
		sent := time.Now()
		path := queryPaths[i%len(queryPaths)]
		ok := q.get(path)
		q.queries = append(q.queries, query{
			Path: path, Latency: time.Since(due), Lag: sent.Sub(due), OK: ok,
		})
	}
}

// get sends one request and reports whether it was answered 200 with a
// body.
func (q *queryLoad) get(path string) bool {
	resp, err := q.client.Get(q.base + path)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	return err == nil && resp.StatusCode == http.StatusOK && n > 0
}

// finish stops the stream, waits for the in-flight request and returns
// every request sent.
func (q *queryLoad) finish() []query {
	close(q.stop)
	<-q.done
	q.client.CloseIdleConnections()
	return q.queries
}

// queryClient is the query stream run in a child process of its own, so the
// client is scheduled beside the daemon rather than inside its Go runtime,
// and its CPU and memory are not the workload's. The child runs with one
// thread.
type queryClient struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   io.ReadCloser
}

func startQueryClient(base string, rate float64) (*queryClient, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "query-client", "-url", base, "-rate", fmt.Sprint(rate))
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	c := &queryClient{cmd: cmd}
	if c.stdin, err = cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if c.out, err = cmd.StdoutPipe(); err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("query client: %w", err)
	}
	return c, nil
}

// begin starts the stream.
func (c *queryClient) begin() error {
	_, err := io.WriteString(c.stdin, "go\n")
	return err
}

// finish stops the stream, waits for the child to exit and returns every
// request it sent.
func (c *queryClient) finish() ([]query, error) {
	_ = c.stdin.Close()
	var queries []query
	derr := json.NewDecoder(c.out).Decode(&queries)
	if err := c.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("query client: %w", err)
	}
	if derr != nil {
		return nil, fmt.Errorf("query client output: %w", derr)
	}
	return queries, nil
}

// runQueryClient is the child process: it waits for "go" on standard input,
// sends the stream until standard input closes, then writes the requests
// as JSON to standard output.
func runQueryClient(args []string) int {
	fl := flag.NewFlagSet("query-client", flag.ContinueOnError)
	base := fl.String("url", "", "daemon base URL")
	rate := fl.Float64("rate", 200, "requests per second")
	if err := fl.Parse(args); err != nil || *base == "" || *rate <= 0 {
		return 2
	}
	in := bufio.NewReader(os.Stdin)
	ready := make(chan struct{})
	q := startQueryLoad(*base, *rate, ready)
	if line, err := in.ReadString('\n'); err == nil && line == "go\n" {
		close(ready)
		_, _ = io.Copy(io.Discard, in)
	}
	if err := json.NewEncoder(os.Stdout).Encode(q.finish()); err != nil {
		fmt.Fprintln(os.Stderr, "query client:", err)
		return 1
	}
	return 0
}
