package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/db"
	"repro/internal/mining"
)

// The serve-mix traffic: each block of mixBlock ops holds mixHits cache
// hits, mixMisses fresh top-k queries and mixWrites dataset writes, in a
// seed-shuffled order, issued by serveClients closed-loop clients.
const (
	mixBlock     = 20
	mixHits      = 14
	mixMisses    = 5
	mixWrites    = 1
	serveClients = 2

	serveBaseTxs   = 10000
	serveWriteTxs  = 2000
	serveWritePool = 4   // distinct write datasets, registered in turn
	writeSupport   = 0.5 // percent
	missSupport    = 100 // absolute; every miss is a top-k query at this floor
	opTimeout      = 60 * time.Second
	pollInterval   = 2 * time.Millisecond
)

// hotSupports are the absolute supports of the hot keys, served from the
// result cache after set-up warms them.
var hotSupports = []int{100, 150, 200, 300}

type opKind int

const (
	opHit opKind = iota
	opMiss
	opWrite
)

func (k opKind) String() string { return [...]string{"hit", "miss", "write"}[k] }

// serve drives cmd/assocmined as a child process over HTTP/JSON.
type serve struct {
	cfg      config
	setupNum int
	d        *daemon
	client   *http.Client
	rec      *recorder

	baseFile   string
	writeFiles []string
	hotRef     []fingerprint
	fullAt100  *mining.Result // reference for top-k misses
	writeRef   []fingerprint
	schedule   []opKind
}

func newServe(cfg config) *serve {
	return &serve{cfg: cfg, rec: newRecorder(), client: &http.Client{
		Timeout:   opTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients},
	}}
}

func (s *serve) workers() int     { return 1 }
func (s *serve) spans() *recorder { return s.rec }

func (s *serve) pid() int { return s.d.cmd.Process.Pid }

func (s *serve) close() {
	if s.d != nil {
		s.d.stop()
		s.d = nil
	}
}

// setup generates the base and write datasets from the seed, computes
// their references in process, starts a fresh daemon over a fresh store,
// registers the base dataset and warms the hot keys.
func (s *serve) setup(ctx context.Context) (map[string]float64, error) {
	s.close()
	s.setupNum++
	dir := filepath.Join(s.cfg.workdir, fmt.Sprintf("serve-%d", s.setupNum))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base, err := generate(serveBaseTxs, s.cfg.seed)
	if err != nil {
		return nil, err
	}
	s.baseFile = filepath.Join(dir, "base.db")
	if err := writeDB(s.baseFile, base); err != nil {
		return nil, err
	}
	s.hotRef = s.hotRef[:0]
	for _, sup := range hotSupports {
		ref, err := reference(ctx, base, sup)
		if err != nil {
			return nil, err
		}
		s.hotRef = append(s.hotRef, fingerprintOf(ref))
		if sup == missSupport {
			s.fullAt100 = ref
		}
	}
	s.writeFiles, s.writeRef = s.writeFiles[:0], s.writeRef[:0]
	for j := 0; j < serveWritePool; j++ {
		d, err := generate(serveWriteTxs, s.cfg.seed*serveWritePool+int64(j)+1)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("write-%d.db", j))
		if err := writeDB(path, d); err != nil {
			return nil, err
		}
		ref, err := reference(ctx, d, d.MinSupCount(writeSupport))
		if err != nil {
			return nil, err
		}
		s.writeFiles = append(s.writeFiles, path)
		s.writeRef = append(s.writeRef, fingerprintOf(ref))
	}
	rng := rand.New(rand.NewSource(s.cfg.seed))
	s.schedule = s.schedule[:0]
	for i := 0; i < mixBlock; i++ {
		k := opHit
		if i >= mixHits+mixMisses {
			k = opWrite
		} else if i >= mixHits {
			k = opMiss
		}
		s.schedule = append(s.schedule, k)
	}
	rng.Shuffle(len(s.schedule), func(i, j int) { s.schedule[i], s.schedule[j] = s.schedule[j], s.schedule[i] })

	if s.d, err = startDaemon(s.cfg.daemon, filepath.Join(dir, "store")); err != nil {
		return nil, err
	}
	if err := s.register(ctx, "base", s.baseFile); err != nil {
		return nil, err
	}
	for i, sup := range hotSupports {
		m, err := s.mine(ctx, jobBody{Dataset: "base", SupportCount: sup}, nil)
		if err == nil {
			err = s.check(m, s.hotRef[i])
		}
		if err != nil {
			return nil, fmt.Errorf("warming hot key %d: %w", sup, err)
		}
	}
	// Warm the miss and write paths too, with keys and names the timed
	// ops never use, so no first-time cost lands in the timed phase.
	warm := &mix{missBase: 1, prefix: "warm"}
	for i, k := range []opKind{opMiss, opWrite} {
		if r := s.doOp(ctx, k, i, warm, false); r.err != nil {
			return nil, fmt.Errorf("warming the %s path: %w", k, r.err)
		}
	}
	return nil, nil
}

func writeDB(path string, d *db.Database) error {
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// jobBody is the subset of POST /v1/jobs the mix sends.
type jobBody struct {
	Dataset      string  `json:"dataset"`
	SupportPct   float64 `json:"supportPct,omitempty"`
	SupportCount int     `json:"supportCount,omitempty"`
	TopK         int     `json:"topK,omitempty"`
}

// jobView is the subset of the daemon's job view the client reads.
type jobView struct {
	ID          string `json:"id"`
	Status      string `json:"status"`
	Cached      bool   `json:"cached"`
	Error       string `json:"error"`
	QueueWaitNS int64  `json:"queueWaitNs"`
	DurationNS  int64  `json:"durationNs"`
}

// mined is one job's outcome as the client saw it.
type mined struct {
	view jobView
	body []byte // the result in the WriteResult text format
}

// fingerprint parses the result body; callers run it after the op's
// clock stops, so verification never counts as latency.
func (m *mined) fingerprint() (fingerprint, error) {
	res, err := mining.Read(bytes.NewReader(m.body))
	if err != nil {
		return fingerprint{}, fmt.Errorf("job %s result: %w", m.view.ID, err)
	}
	return fingerprintOf(res), nil
}

// call sends one request and decodes a JSON reply into out (when
// non-nil), failing on any status other than want.
func (s *serve) call(ctx context.Context, method, path string, body any, want int, out any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.d.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return nil, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return b, nil
}

// mine submits a job, polls until it is done and fetches the result. kids,
// when non-nil, receives the submit, wait and fetch spans.
func (s *serve) mine(ctx context.Context, body jobBody, kids *[]kid) (*mined, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	var m mined
	t0 := time.Now()
	if _, err := s.call(ctx, http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &m.view); err != nil {
		return nil, err
	}
	t1 := time.Now()
	for m.view.Status == "queued" || m.view.Status == "running" {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("job %s: %w", m.view.ID, ctx.Err())
		case <-time.After(pollInterval):
		}
		if _, err := s.call(ctx, http.MethodGet, "/v1/jobs/"+m.view.ID, nil, http.StatusOK, &m.view); err != nil {
			return nil, err
		}
	}
	if m.view.Status != "done" {
		return nil, fmt.Errorf("job %s ended %s: %s", m.view.ID, m.view.Status, m.view.Error)
	}
	t2 := time.Now()
	b, err := s.call(ctx, http.MethodGet, "/v1/jobs/"+m.view.ID+"/result", nil, http.StatusOK, nil)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	if kids != nil {
		*kids = append(*kids, kid{"http.submit", t0, t1}, kid{"service.wait", t1, t2}, kid{"http.fetch", t2, t3})
	}
	m.body = b
	return &m, nil
}

func (s *serve) register(ctx context.Context, name, path string) error {
	_, err := s.call(ctx, http.MethodPost, "/v1/datasets", map[string]string{"name": name, "path": path}, http.StatusCreated, nil)
	return err
}

// opRecord is one finished op of the mix.
type opRecord struct {
	kind       opKind
	traced     bool
	latMS      float64
	err        error
	view       jobView
	bytes      int
	registerMS float64
	deleteMS   float64
}

func (s *serve) cacheCounts(ctx context.Context) (hits, misses float64, err error) {
	var m map[string]any
	if _, err := s.call(ctx, http.MethodGet, "/metricsz", nil, http.StatusOK, &m); err != nil {
		return 0, 0, err
	}
	h, _ := m["service_cache_hits_total"].(float64)
	mi, _ := m["service_cache_misses_total"].(float64)
	return h, mi, nil
}

// expectTopK is the reference for a top-k miss: the full support-100
// mine truncated by the library's own tie-breaking rule.
func (s *serve) expectTopK(k int) fingerprint {
	r := &mining.Result{MinSup: s.fullAt100.MinSup, NumTransactions: s.fullAt100.NumTransactions,
		Itemsets: append([]mining.FrequentItemset(nil), s.fullAt100.Itemsets...)}
	r.TruncateTopK(k)
	return fingerprintOf(r)
}

// check compares a job's result with its reference.
func (s *serve) check(m *mined, want fingerprint) error {
	got, err := m.fingerprint()
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("job %s: result %v, reference %v", m.view.ID, got, want)
	}
	return nil
}

// doOp runs op i, of the given kind, and checks its output after timing
// it.
func (s *serve) doOp(ctx context.Context, kind opKind, i int, n *mix, traced bool) opRecord {
	r := opRecord{kind: kind, traced: traced}
	var kids []kid
	var kp *[]kid
	if traced {
		kp = &kids
	}
	var m *mined
	var want func() fingerprint
	t0 := time.Now()
	switch kind {
	case opHit:
		h := int(n.hits.Add(1)-1) % len(hotSupports)
		m, r.err = s.mine(ctx, jobBody{Dataset: "base", SupportCount: hotSupports[h]}, kp)
		want = func() fingerprint { return s.hotRef[h] }
	case opMiss:
		k := n.missBase + int(n.misses.Add(1)-1)
		m, r.err = s.mine(ctx, jobBody{Dataset: "base", SupportCount: missSupport, TopK: k}, kp)
		want = func() fingerprint { return s.expectTopK(k) }
	case opWrite:
		w := int(n.writes.Add(1))
		j := (w - 1) % len(s.writeFiles)
		name := fmt.Sprintf("%s%d", n.prefix, w)
		r.err = s.register(ctx, name, s.writeFiles[j])
		t1 := time.Now()
		if r.err == nil {
			m, r.err = s.mine(ctx, jobBody{Dataset: name, SupportPct: writeSupport}, kp)
		}
		t2 := time.Now()
		if r.err == nil {
			_, r.err = s.call(ctx, http.MethodDelete, "/v1/datasets/"+name, nil, http.StatusNoContent, nil)
		}
		r.registerMS, r.deleteMS = ms(t1.Sub(t0)), ms(time.Since(t2))
		kids = append(kids, kid{"service.register", t0, t1}, kid{"service.delete", t2, time.Now()})
		want = func() fingerprint { return s.writeRef[j] }
	}
	end := time.Now()
	r.latMS = ms(end.Sub(t0))
	if r.err == nil {
		r.view, r.bytes = m.view, len(m.body)
		r.err = s.check(m, want())
	}
	if traced && r.err == nil {
		s.rec.addTree(i, "op."+kind.String(), t0, end, kids)
	}
	return r
}

// mix numbers the ops of one phase so no two share a cache key or a
// dataset name: hits rotate through the hot keys, misses take top-k
// values from missBase up, writes register prefix1, prefix2, ...
type mix struct {
	hits, misses, writes atomic.Int64
	missBase             int
	prefix               string
}

func (s *serve) measure(ctx context.Context, deadline time.Time, traced bool) (*measurement, error) {
	h0, m0, err := s.cacheCounts(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(s.pid())
	if err != nil {
		return nil, err
	}
	var (
		next atomic.Int64
		n    = &mix{missBase: 10, prefix: "w"} // set-up's warm miss is top-1
		mu   sync.Mutex
		ops  []opRecord
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				// Whole blocks alternate between traced and untraced, so
				// both halves see the same mix.
				r := s.doOp(ctx, s.schedule[i%len(s.schedule)], i, n, traced && (i/mixBlock)%2 == 0)
				mu.Lock()
				ops = append(ops, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	m := &measurement{elapsed: time.Since(start), layers: map[string]float64{}}
	cpu1, err := procCPU(s.pid())
	if err != nil {
		return nil, err
	}
	h1, m1, err := s.cacheCounts(ctx)
	if err != nil {
		return nil, err
	}
	m.cpuS = (cpu1 - cpu0).Seconds()

	lat := map[opKind][]float64{}
	var tracedHit, plainHit, queueMS, jobMS, overheadMS, resultBytes, regMS, delMS []float64
	for _, r := range ops {
		m.attempted++
		if r.err != nil {
			m.fail("%s: %v", r.kind, r.err)
			continue
		}
		m.done++
		lat[r.kind] = append(lat[r.kind], r.latMS)
		switch r.kind {
		case opWrite:
			regMS = append(regMS, r.registerMS)
			delMS = append(delMS, r.deleteMS)
			continue
		case opMiss:
			queueMS = append(queueMS, float64(r.view.QueueWaitNS)/1e6)
			jobMS = append(jobMS, float64(r.view.DurationNS)/1e6)
		case opHit:
			m.latMS = append(m.latMS, r.latMS) // op_p50_ms is the hit p50
			if r.traced {
				tracedHit = append(tracedHit, r.latMS)
			} else {
				plainHit = append(plainHit, r.latMS)
			}
		}
		overheadMS = append(overheadMS, r.latMS-float64(r.view.QueueWaitNS+r.view.DurationNS)/1e6)
		resultBytes = append(resultBytes, float64(r.bytes))
	}
	for _, k := range []opKind{opHit, opMiss, opWrite} {
		line := fmt.Sprintf("%s ops %d p50 %.3f ms", k, len(lat[k]), median(lat[k]))
		if t, ok := pickTail(lat[k]); ok {
			line += fmt.Sprintf(", p%g %.3f ms (%d samples beyond)", t.Pct, t.Value, t.Beyond)
		}
		m.detail = append(m.detail, line)
	}
	if traced {
		m.layers["serve.hit_p50_ms"] = median(lat[opHit])
		if t, ok := pickTail(lat[opHit]); ok {
			m.layers["serve.hit_tail_ms"] = t.Value
			m.detail = append(m.detail, fmt.Sprintf("serve.hit_tail_ms is p%g (%d samples beyond)", t.Pct, t.Beyond))
		}
		m.layers["serve.miss_p50_ms"] = median(lat[opMiss])
		m.layers["serve.write_p50_ms"] = median(lat[opWrite])
		m.layers["service.queue_wait_ms"] = median(queueMS)
		m.layers["service.job_ms"] = median(jobMS)
		if h, mi := h1-h0, m1-m0; h+mi > 0 {
			m.layers["service.cache_hit_frac"] = h / (h + mi)
		}
		m.layers["http.overhead_ms"] = median(overheadMS)
		m.layers["http.result_bytes"] = median(resultBytes)
		m.layers["service.register_ms"] = median(regMS)
		m.layers["service.delete_ms"] = median(delMS)
		if p := median(plainHit); p > 0 {
			m.layers["trace_overhead_frac"] = median(tracedHit)/p - 1
		}
	}
	return m, nil
}

// daemon is a running assocmined child process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
}

// startDaemon launches assocmined on an ephemeral port with one mining
// worker and a one-goroutine parallel budget over a store at dataDir,
// and waits for its listening line.
func startDaemon(bin, dataDir string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("serve-mix needs -daemon (the assocmined binary)")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir,
		"-workers", "1", "-parallel-budget", "1", "-drain", "5s")
	// The daemon must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Drain the log until the daemon exits so it never blocks on a
		// full pipe; the first listening line carries the address.
		defer close(d.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "assocmined listening on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.done:
		_ = cmd.Wait()
		return nil, errors.New("assocmined exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("assocmined did not start listening within 30s")
	}
}

// stop asks the daemon to drain and exit, kills it if it does not, and
// waits until it has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	_ = d.cmd.Wait()
}
