// Command perfbench is sfcpd's benchmark. It starts the real sfcpd binary
// on loopback, drives it in a closed loop with one of three workloads,
// checks every answer against the library, and prints end-to-end metrics
// (--trace 0) or per-layer metrics from /metrics, the response fields and
// an in-process traced replay (--trace 1). Run it through run.sh, which
// builds both binaries from the checkout:
//
//	bash perfbench/run.sh --workload solve-large --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh list
//	bash perfbench/run.sh compare OLD_RESULTS NEW_RESULTS
//
// The last line of a run's output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md says why each
// workload exists and which end-to-end metric each layer metric moves.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupReps is how many times each run starts sfcpd (and, for
// delta-stream, registers the base instance) to report setup_s as a
// median; the last start serves the measured window.
const setupReps = 9

// hardCap bounds a window that has not reached its workload's planned
// request count after --seconds, so a run always ends well inside the
// 180 s a run may take.
const hardCap = 100 * time.Second

func main() {
	root := flag.String("root", ".", "checkout root (sources, and .bench_build for outputs)")
	sfcpdBin := flag.String("sfcpd", "", "sfcpd binary built from the checkout")
	name := flag.String("workload", "", "workload: solve-large, small-batch or delta-stream")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured window length in seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()

	var err error
	switch flag.Arg(0) {
	case "list":
		listMetrics(os.Stdout)
	case "compare":
		if flag.NArg() != 3 {
			err = errors.New("usage: perfbench compare OLD NEW (result files or directories)")
		} else {
			err = compare(os.Stdout, flag.Arg(1), flag.Arg(2))
		}
	case "":
		err = run(*root, *sfcpdBin, *name, *seed, *seconds, *trace == 1)
	default:
		err = fmt.Errorf("unknown command %q", flag.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func listMetrics(w io.Writer) {
	fmt.Fprintln(w, "end-to-end (--trace 0):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-40s %-6s %s is better\n", m.Name, m.Unit, m.Better)
	}
	fmt.Fprintln(w, "per-layer (--trace 1):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-40s %-6s %s is better\n", m.Name, m.Unit, m.Better)
	}
}

// result is everything one run produced; it is written to
// .bench_build/perfbench/results and is what compare reads.
type result struct {
	Stamp     stamp              `json:"stamp"`
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	SpansFile string             `json:"spans_file,omitempty"`
}

// active holds the sfcpd process of the run in progress, so a signal to
// the benchmark stops it too.
var active struct {
	sync.Mutex
	d *daemon
}

func setActive(d *daemon) {
	active.Lock()
	active.d = d
	active.Unlock()
}

func run(root, sfcpdBin, name string, seed uint64, seconds int, trace bool) error {
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	if sfcpdBin == "" {
		return errors.New("-sfcpd is required (run through run.sh)")
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	root, err = filepath.Abs(root)
	if err != nil {
		return err
	}
	out := filepath.Join(root, ".bench_build", "perfbench")
	workDir := filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		active.Lock()
		if active.d != nil {
			active.d.stop()
		}
		os.RemoveAll(workDir)
		os.Exit(1)
	}()

	res, spans, err := measure(w, sfcpdBin, workDir, seed, time.Duration(seconds)*time.Second, trace)
	if err != nil {
		return err
	}
	res.Stamp = newStamp(root, seed, res.Stamp.SfcpdFlags)
	res.Workload = name

	resultsDir := filepath.Join(out, "results")
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d-%d", name, seed, boolInt(trace), time.Now().UnixNano())
	if trace {
		res.SpansFile = filepath.Join(resultsDir, tag+".spans.jsonl")
		if err := writeSpans(res.SpansFile, spans); err != nil {
			return err
		}
	}
	full, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(resultsDir, tag+".json"), full, 0o644); err != nil {
		return err
	}
	return report(os.Stdout, res)
}

// report prints every metric of the run by name and unit, then the
// one-line JSON result that ends the output.
func report(w io.Writer, res *result) error {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v commit=%s host=%q gomaxprocs=%d nproc=%d %s\n",
		res.Workload, res.Stamp.Seed, res.Trace, res.Stamp.Commit, res.Stamp.Host.CPUModel,
		res.Stamp.GOMAXPROCS, res.Stamp.NProc, res.Stamp.GoVersion)
	fmt.Fprintf(w, "sfcpd %v\n", res.Stamp.SfcpdFlags)
	if res.SpansFile != "" {
		fmt.Fprintf(w, "spans: %s\n", res.SpansFile)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		metrics[d.Name] = value{v, d.Unit}
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.Name, v, d.Unit)
	}
	if !res.Trace {
		fmt.Fprintf(w, "  (tail is p%g with %.0f samples beyond it, of %.0f requests)\n",
			res.Metrics["run.tail_percentile"], res.Metrics["run.tail_samples_beyond"], res.Metrics["run.requests"])
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// measure runs one workload end to end: set-ups, warm-up, the measured
// window, the answer checks and, with trace, the traced replay, whose
// spans it returns.
func measure(w traffic, sfcpdBin, workDir string, seed uint64, window time.Duration, trace bool) (*result, []span, error) {
	clients := min(w.clients(), runtime.NumCPU())
	if err := w.prepare(seed, clients); err != nil {
		return nil, nil, fmt.Errorf("preparing inputs: %w", err)
	}
	hc := &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
	defer hc.CloseIdleConnections()
	ctx := context.Background()

	var d *daemon
	var setups []float64
	for i := 0; i < setupReps; i++ {
		var took time.Duration
		var err error
		d, took, err = startDaemon(sfcpdBin, workDir)
		if err != nil {
			return nil, nil, err
		}
		setActive(d)
		start := time.Now()
		if err := w.setup(ctx, hc, d.base); err != nil {
			d.stop()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (took + time.Since(start)).Seconds())
		if i < setupReps-1 {
			hc.CloseIdleConnections()
			d.stop()
		}
	}
	defer func() { d.stop(); setActive(nil) }()

	lg := &loadgen{w: w, hc: hc, base: d.base, clients: clients}
	lg.phase(ctx, 0, w.warmup(), 0, 0, nil)
	before, err := d.metrics(ctx, hc)
	if err != nil {
		return nil, nil, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, nil, err
	}
	var rss atomic.Value
	planned := w.planned()
	win := lg.phase(ctx, w.warmup(), -1, window, planned, func() {
		if v, err := d.peakRSSMB(); err == nil {
			rss.Store(v)
		}
	})
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, nil, err
	}
	after, err := d.metrics(ctx, hc)
	if err != nil {
		return nil, nil, err
	}
	if rss.Load() == nil { // the window ended before the planned count
		v, err := d.peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		rss.Store(v)
	}
	flags := d.flags
	hc.CloseIdleConnections()
	d.stop()
	setActive(nil)

	wrong, err := w.verify()
	if err != nil {
		return nil, nil, fmt.Errorf("checking answers: %w", err)
	}
	attempted := lg.sent.Load()
	failed := int(lg.failed.Load()) + wrong
	n := float64(len(win.lat))
	m := map[string]float64{
		"throughput_rps":            ratio(float64(win.ok), win.dur.Seconds()),
		"latency_p50_ms":            median(win.lat),
		"setup_s":                   median(setups),
		"peak_rss_mb":               rss.Load().(float64),
		"cpu_ms_per_req":            ratio(ms(cpu1-cpu0), n),
		"run.requests":              n,
		"run.failed_frac":           ratio(float64(failed), float64(attempted)),
		"server.resp_bytes_per_req": ratio(float64(win.respBytes), n),
	}
	p := tailPercentile(planned)
	m["latency_tail_ms"] = percentile(win.lat, p)
	m["run.tail_percentile"] = p
	m["run.tail_samples_beyond"] = float64(beyond(win.lat, p))
	promMetrics(m, before, after, n)
	w.layerMetrics(m)

	var spans []span
	if trace {
		replayDir, err := os.MkdirTemp(workDir, "replay-")
		if err != nil {
			return nil, nil, err
		}
		tr := newTracer()
		if err := w.replay(tr, replayDir, m); err != nil {
			return nil, nil, fmt.Errorf("traced replay: %w", err)
		}
		os.RemoveAll(replayDir)
		sum := 0.0
		self := layerSelfP50(requestSpans(tr.spans))
		for _, l := range traceLayers {
			m["trace.self_ms."+l] = self[l]
			sum += self[l]
		}
		m["trace.unattributed_ms"] = m["latency_p50_ms"] - sum
		spans = tr.spans
	}
	return &result{
		Stamp:     stamp{SfcpdFlags: flags},
		Trace:     trace,
		Correct:   failed == 0,
		Attempted: int(attempted),
		Failed:    failed,
		Metrics:   m,
	}, spans, nil
}

// requestSpans drops the spans of set-up work (Req < 0) and the replayed
// requests' root spans, leaving the layer spans whose self times are
// summed per request.
func requestSpans(spans []span) []span {
	var out []span
	for _, s := range spans {
		if s.Req >= 0 && s.Layer != rootLayer {
			out = append(out, s)
		}
	}
	return out
}

// promMetrics derives the /metrics-sourced layer metrics from the scrapes
// taken just before and just after the window; n is the window's request
// count.
func promMetrics(m map[string]float64, before, after scrape, n float64) {
	hits := delta(before, after, famCacheHits)
	misses := delta(before, after, famCacheMisses)
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	m["cache.bytes_end"] = after.family(famCacheBytes)
	m["server.req_bytes_per_req"] = ratio(delta(before, after, famIngestBytes), n)
	m["batcher.members_per_flush"] = ratio(delta(before, after, famBatcherCoalesced),
		delta(before, after, famBatcherFlushes))
	m["batcher.queue_wait_ms_mean"] = 1000 * ratio(delta(before, after, famBatcherQueueSum),
		delta(before, after, famBatcherQueueCount))
	m["engine.linear_frac"] = ratio(seriesDelta(before, after, famPlanAlgorithm, `algorithm="linear"`),
		delta(before, after, famPlanAlgorithm))
	m["incr.incremental_frac"] = ratio(seriesDelta(before, after, famResolve, `mode="incremental"`),
		delta(before, after, famResolve))
	m["store.blob_write_bytes_per_req"] = ratio(delta(before, after, famBlobWriteBytes), n)
	m["store.blob_writes_per_req"] = ratio(delta(before, after, famBlobWrites), n)
	m["store.blob_read_bytes_per_req"] = ratio(delta(before, after, famBlobReadBytes), n)
}

// loadgen is the closed-loop load generator: each client sends its next
// request only after the previous reply has been read in full.
type loadgen struct {
	w       traffic
	hc      *http.Client
	base    string
	clients int
	sent    atomic.Int64
	failed  atomic.Int64
}

// windowStats are the measurements of one phase.
type windowStats struct {
	lat       []float64 // ms, successful requests only
	ok        int
	respBytes int64
	dur       time.Duration
}

// phase runs every client from sequence number from: count requests each
// (count >= 0), or, for count < 0, until the window has lasted at least
// length and the clients together completed at least planned requests
// (or hardCap passed, or the inputs ran out). atPlanned runs once, when
// the planned-th request completes.
func (lg *loadgen) phase(ctx context.Context, from, count int, length time.Duration, planned int, atPlanned func()) windowStats {
	start := time.Now()
	var done atomic.Int64
	per := make([]windowStats, lg.clients)
	ends := make([]time.Time, lg.clients)
	var wg sync.WaitGroup
	for c := 0; c < lg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &per[c]
			var buf []byte
			for seq := from; ; seq++ {
				if count >= 0 && seq >= from+count {
					break
				}
				if count < 0 {
					el := time.Since(start)
					if (el >= length && done.Load() >= int64(planned)) || el >= hardCap {
						break
					}
				}
				req, err := lg.w.request(ctx, c, seq, lg.base)
				if errors.Is(err, errExhausted) {
					break
				}
				lg.sent.Add(1)
				var lat time.Duration
				var status int
				if err == nil {
					t := time.Now()
					status, buf, err = send(lg.hc, req, buf)
					lat = time.Since(t)
				}
				ok := err == nil && lg.w.record(c, seq, count < 0, status, buf, lat)
				if !ok {
					lg.failed.Add(1)
				} else {
					st.ok++
					st.lat = append(st.lat, ms(lat))
				}
				st.respBytes += int64(len(buf))
				if done.Add(1) == int64(planned) && atPlanned != nil {
					atPlanned()
				}
			}
			ends[c] = time.Now()
		}()
	}
	wg.Wait()
	var out windowStats
	last := start
	for c := range per {
		out.lat = append(out.lat, per[c].lat...)
		out.ok += per[c].ok
		out.respBytes += per[c].respBytes
		if ends[c].After(last) {
			last = ends[c]
		}
	}
	out.dur = last.Sub(start)
	return out
}

// send performs one request and reads the whole reply into buf.
func send(hc *http.Client, req *http.Request, buf []byte) (int, []byte, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return 0, buf[:0], err
	}
	defer resp.Body.Close()
	buf = buf[:0]
	if resp.ContentLength > 0 && int64(cap(buf)) < resp.ContentLength {
		buf = make([]byte, 0, resp.ContentLength)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		k, err := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err == io.EOF {
			return resp.StatusCode, buf, nil
		}
		if err != nil {
			return resp.StatusCode, buf, err
		}
	}
}
