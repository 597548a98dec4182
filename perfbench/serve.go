package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/server"
	"repro/internal/spgemm"
)

// serve_replay: an in-process multiply server on loopback with a few small
// G500 operand pairs uploaded as SPGB, driven open-loop at fixed arrival
// rates by one client process over at most two connections. The mix is
// mostly plan-cache hits answered with metadata, a share answered with the
// product matrix (SPGB encode plus client decode), and a share of fresh
// uploads, each followed by its multiply (SHA-256 interning, a plan miss
// and NewPlan, LRU eviction under a small store budget). HTTP/JSON, store,
// admission and plan-cache layers take a large share of each request here.
const (
	serveScale      = 8
	servePairs      = 4
	serveFreshCount = 64 // distinct fresh matrices, cycled through
	serveFreshSlots = 20 // store budget beyond the hot set, in fresh matrices
	serveConns      = 2  // client connections, one sending goroutine each
	// serveLimitMs is the latency limit, from each request's due time, on
	// the tail percentile. It sits where latency turns steeply upward as
	// the two connections saturate, so rps_at_slo reads the knee.
	serveLimitMs = 25.0
	// serveRefRung is the ladder index of the reference rate (420 req/s,
	// under a quarter of the 2-CPU saturation rate, so host stalls queue
	// few requests behind them) at which op_p50_ms, op_tail_ms, slo_ratio
	// and mflops are measured.
	serveRefRung = 30
	// sendEarly is how far before its due time a request may be sent:
	// half of a 1 ms timer tick, so hosts whose sleeps round up to a tick
	// send on time on average instead of always late.
	sendEarly = 500 * time.Microsecond
	// Request mix, per mille: meta hits, matrix hits, the rest uploads.
	serveMetaShare   = 800
	serveMatrixShare = 100
)

// serveLadder is the fixed ladder of arrival rates rps_at_slo is read from:
// 200 req/s times 1.025^k, up to 4600 req/s.
var serveLadder = func() []float64 {
	out := make([]float64, 128)
	for k := range out {
		out[k] = math.Round(200 * math.Pow(1.025, float64(k)))
	}
	return out
}()

type reqKind int

const (
	kindMeta reqKind = iota
	kindMatrix
	kindUpload
)

// operand is one matrix the client may upload, with its expected hash.
type operand struct {
	m    *matrix.CSR
	hash string
}

// product is what a multiply of (a, b) must answer.
type product struct {
	a, b int // operand indices
	flop int64
	nnz  int64
	ref  *matrix.CSR // AlgHash product; set for the hot pairs only
}

type serveInputs struct {
	operands []operand // 2*servePairs hot operands, then the fresh ones
	hot      []product // servePairs
	fresh    []product // serveFreshCount: fresh[k] multiplies operand 2*servePairs+k
	hotBytes int64
}

func prepareServe(rng *rand.Rand) (*serveInputs, error) {
	in := &serveInputs{}
	newOperand := func() error {
		m := gen.RMAT(serveScale, 16, gen.G500Params, rng)
		h, err := server.HashMatrix(m)
		if err != nil {
			return err
		}
		in.operands = append(in.operands, operand{m, h})
		return nil
	}
	for i := 0; i < 2*servePairs+serveFreshCount; i++ {
		if err := newOperand(); err != nil {
			return nil, err
		}
	}
	mk := func(a, b int, keep bool) (product, error) {
		am, bm := in.operands[a].m, in.operands[b].m
		naive := matrix.NaiveMultiply(am, bm)
		p := product{a: a, b: b, nnz: naive.NNZ()}
		p.flop, _ = matrix.Flop(am, bm)
		if keep {
			ref, err := spgemm.Multiply(am, bm, &spgemm.Options{Algorithm: spgemm.AlgHash, Workers: 1})
			if err != nil {
				return p, err
			}
			if !ref.Sorted || !matrix.EqualApprox(ref, naive, 1e-9) {
				return p, errors.New("an AlgHash reference disagrees with matrix.NaiveMultiply")
			}
			p.ref = ref
		}
		return p, nil
	}
	for i := 0; i < servePairs; i++ {
		p, err := mk(2*i, 2*i+1, true)
		if err != nil {
			return nil, err
		}
		in.hot = append(in.hot, p)
		in.hotBytes += matrix.WireSize(in.operands[2*i].m) + matrix.WireSize(in.operands[2*i+1].m)
	}
	for k := 0; k < serveFreshCount; k++ {
		p, err := mk(2*servePairs+k, 2*(k%servePairs)+1, false)
		if err != nil {
			return nil, err
		}
		in.fresh = append(in.fresh, p)
	}
	return in, nil
}

// serveEnv is one running server and the client that drives it.
type serveEnv struct {
	srv    *server.Server
	hs     *http.Server
	done   chan error // Serve's return value
	url    string
	client *http.Client
	in     *serveInputs
	tr     *tracer // nil when untraced
}

// startServe is the workload's set-up: start the server, upload the hot
// operands as SPGB and build each hot pair's plan with a first multiply.
// wrap, when non-nil, wraps the server's handler (tests corrupt answers
// with it).
func startServe(in *serveInputs, wrap func(http.Handler) http.Handler) (*serveEnv, error) {
	var freshMax int64
	for _, p := range in.fresh {
		freshMax = max(freshMax, matrix.WireSize(in.operands[p.a].m))
	}
	srv := server.New(server.Config{
		Contexts:      workers,
		Workers:       1,
		MaxStoreBytes: in.hotBytes + serveFreshSlots*freshMax,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	e := &serveEnv{
		srv:  srv,
		hs:   &http.Server{Handler: h},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		}},
		in: in,
	}
	go func() { e.done <- e.hs.Serve(ln) }()
	for i := 0; i < 2*servePairs; i++ {
		if err := e.upload(i, nil, -1, -1); err != nil {
			e.stop()
			return nil, err
		}
	}
	for i := range in.hot {
		o := e.multiply(&in.hot[i], kindMeta, -1, -1)
		if o.err != nil {
			e.stop()
			return nil, fmt.Errorf("first multiply of pair %d: %w", i, o.err)
		}
	}
	return e, nil
}

// stop shuts the server down and waits for its Serve loop to return.
func (e *serveEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // a timeout here leaves nothing to clean up
	<-e.done
	e.client.CloseIdleConnections()
	e.srv.Close()
}

// request is one scheduled arrival.
type request struct {
	due   time.Duration // from the phase start
	kind  reqKind
	index int // hot pair, or fresh product for uploads
}

// outcome is what one request measured.
type outcome struct {
	err        error
	latency    time.Duration // completion minus the due time or the send, whichever came first
	lag        time.Duration // send minus due time; negative when sent early
	flop       int64
	rejected   bool
	multiplied bool // a multiply response was checked
	planHit    bool
	// Server-reported and client-side intervals of the multiply, where
	// the response carried them (meta responses).
	server, queue, roundTrip time.Duration
	hasServer                bool
	upload, encode, decode   time.Duration
}

// schedule draws Poisson arrivals at rate per second over dur, with the
// request mix from rng. Fresh uploads cycle through the fresh products
// starting at *next, so each comes back only after the store has evicted it.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, next *int) []request {
	var out []request
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return out
		}
		q := request{due: t, index: rng.Intn(servePairs)}
		switch u := rng.Intn(1000); {
		case u < serveMetaShare:
			q.kind = kindMeta
		case u < serveMetaShare+serveMatrixShare:
			q.kind = kindMatrix
		default:
			q.kind = kindUpload
			q.index = *next % serveFreshCount
			*next++
		}
		out = append(out, q)
	}
}

// phase sends sched open-loop: each request goes out at its due time on one
// of serveConns sending goroutines, or as soon as one is free. opBase
// numbers the requests' trace ops.
func (e *serveEnv) phase(sched []request, opBase int) []outcome {
	out := make([]outcome, len(sched))
	queue := make(chan int, len(sched)) // sized to the number of sends
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i] = e.do(sched[i], start.Add(sched[i].due), opBase+i)
			}
		}()
	}
	for i, q := range sched {
		if d := time.Until(start.Add(q.due)) - sendEarly; d > 0 {
			time.Sleep(d)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// do sends one request and checks its answer.
func (e *serveEnv) do(q request, due time.Time, op int) outcome {
	sent := time.Now()
	var o outcome
	opStart := due
	if sent.Before(due) {
		opStart = sent
	}
	// With tracing on, every other request is traced. The op span's end
	// is not known yet: it is recorded first, so its children can name it,
	// and closed at the end.
	id := -1
	if e.tr != nil && op%2 == 0 {
		id = e.tr.add("op", -1, op, opStart, opStart, false)
	}
	e.span("loadgen.lag", id, op, opStart, sent, false)
	switch q.kind {
	case kindUpload:
		p := &e.in.fresh[q.index]
		var up outcome
		if err := e.upload(p.a, &up, id, op); err != nil {
			o.err = err
			break
		}
		o = e.multiply(p, kindMeta, id, op)
		o.upload, o.encode = up.upload, up.encode
	default:
		o = e.multiply(&e.in.hot[q.index], q.kind, id, op)
	}
	end := time.Now()
	// Latency runs from the due time, so a late send counts the wait a
	// stall imposed; a request sent early is timed from its send.
	o.lag = sent.Sub(due)
	o.latency = end.Sub(opStart)
	if id >= 0 {
		e.tr.setEnd(id, end)
	}
	return o
}

// span records a child span of an op; set-up calls and untraced requests
// (parent -1) record nothing.
func (e *serveEnv) span(name string, parent, op int, start, end time.Time, placed bool) int {
	if parent < 0 {
		return -1
	}
	return e.tr.add(name, parent, op, start, end, placed)
}

// upload posts operand i as SPGB and checks the returned hash and shape.
// up, when non-nil, receives the encode and round-trip times.
func (e *serveEnv) upload(i int, up *outcome, parent, op int) error {
	opd := e.in.operands[i]
	t0 := time.Now()
	var body bytes.Buffer
	if err := matrix.WriteCSRBinary(&body, opd.m); err != nil {
		return err
	}
	t1 := time.Now()
	resp, err := e.client.Post(e.url+"/v1/matrices", server.ContentTypeCSRBinary, &body)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t2 := time.Now()
	if up != nil {
		up.encode, up.upload = t1.Sub(t0), t2.Sub(t1)
	}
	e.span("wire.encode", parent, op, t0, t1, false)
	e.span("http.upload", parent, op, t1, t2, false)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("upload: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var info server.MatrixInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	if info.Hash != opd.hash || info.NNZ != opd.m.NNZ() || info.Rows != opd.m.Rows || info.Cols != opd.m.Cols {
		return fmt.Errorf("upload answered %+v, want hash %s nnz %d", info, opd.hash, opd.m.NNZ())
	}
	return nil
}

// multiply asks for p's product, returned as metadata or as the matrix, and
// checks the answer: metadata must carry the exact shape, nnz and flop; a
// matrix must be bit-identical to the AlgHash reference.
func (e *serveEnv) multiply(p *product, kind reqKind, parent, op int) outcome {
	var o outcome
	ret := "meta"
	if kind == kindMatrix {
		ret = "matrix"
	}
	body, err := json.Marshal(server.MultiplyRequest{
		A: e.in.operands[p.a].hash, B: e.in.operands[p.b].hash, Return: ret,
	})
	if err != nil {
		o.err = err
		return o
	}
	t0 := time.Now()
	resp, err := e.client.Post(e.url+"/v1/multiply", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	o.roundTrip = t1.Sub(t0)
	hid := e.span("http.multiply", parent, op, t0, t1, false)
	if err != nil {
		o.err = err
		return o
	}
	o.multiplied = true
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		o.rejected = true
		o.err = errors.New("multiply refused with 429")
		return o
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("multiply: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return o
	}
	if kind == kindMatrix {
		o.planHit, _ = strconv.ParseBool(resp.Header.Get("X-Spgemm-Plan-Cache-Hit"))
		got, err := matrix.ReadCSRBinary(bytes.NewReader(raw))
		t2 := time.Now()
		o.decode = t2.Sub(t1)
		e.span("wire.decode", parent, op, t1, t2, false)
		if err != nil {
			o.err = fmt.Errorf("decode product: %w", err)
			return o
		}
		if !sameProduct(got, p.ref) {
			o.err = errors.New("returned product differs from the AlgHash reference")
			return o
		}
		o.flop = p.flop
		return o
	}
	var mr server.MultiplyResponse
	if err := json.Unmarshal(raw, &mr); err != nil {
		o.err = fmt.Errorf("multiply: %w", err)
		return o
	}
	bm := e.in.operands[p.b].m
	if mr.Rows != e.in.operands[p.a].m.Rows || mr.Cols != bm.Cols || mr.NNZ != p.nnz || mr.Flop != p.flop {
		o.err = fmt.Errorf("multiply answered %dx%d nnz %d flop %d, want nnz %d flop %d",
			mr.Rows, mr.Cols, mr.NNZ, mr.Flop, p.nnz, p.flop)
		return o
	}
	o.planHit = mr.PlanCacheHit
	o.hasServer = true
	o.queue = time.Duration(mr.QueueSeconds * float64(time.Second))
	o.server = time.Duration(mr.ElapsedSeconds * float64(time.Second))
	if o.server <= o.roundTrip {
		// The server reports durations only: centre its interval in the
		// round trip, queue wait first.
		s := t0.Add((o.roundTrip - o.server) / 2)
		e.span("server.queue", hid, op, s, s.Add(o.queue), true)
		e.span("server.multiply", hid, op, s.Add(o.queue), s.Add(o.server), true)
	}
	o.flop = p.flop
	return o
}

func runServe(cfg config, tr *tracer, r *run) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	in, err := prepareServe(rng)
	if err != nil {
		return err
	}
	var hotFlop, hotNNZ, hotBytes int64
	var stanza float64
	algs := make([]string, 0, servePairs)
	for _, p := range in.hot {
		a, b := in.operands[p.a].m, in.operands[p.b].m
		hotFlop += p.flop
		hotNNZ += p.nnz
		acc := spgemm.CollectAccessStats(a, b, p.nnz)
		hotBytes += acc.TotalBytes()
		stanza += acc.MeanStanzaBytes() / servePairs
		algs = append(algs, spgemm.Recommend(a, b, true, spgemm.UseSquare).String())
	}
	var freshFlop int64
	for _, p := range in.fresh {
		freshFlop += p.flop
	}
	r.counts["hot_flop"] = hotFlop
	r.counts["hot_nnz_c"] = hotNNZ
	r.counts["fresh_flop"] = freshFlop
	r.counts["auto_alg"] = algs
	probeBandwidth(r, stanza)
	resetPeakRSS()

	var env *serveEnv
	if err := timeSetups(r, func() error {
		if env != nil {
			env.stop()
		}
		env, err = startServe(in, nil)
		return err
	}); err != nil {
		return err
	}
	defer env.stop()

	total := time.Duration(cfg.seconds * float64(time.Second))
	// At 30 s the reference phase sends about 6300 requests, so its tail
	// is p99 with about 60 samples beyond it.
	refDur := total / 2
	if tr != nil {
		// The traced run reports per-layer figures at the reference rate
		// only; it spends the ladder's time there too.
		refDur = total * 90 / 100
	}
	refRate := serveLadder[serveRefRung]
	next := 0
	var firstErr error
	account := func(outs []outcome) {
		for _, o := range outs {
			r.attempted++
			if o.err != nil {
				r.failed++
				if firstErr == nil {
					firstErr = o.err
				}
			}
		}
	}

	// Warm-up at the reference rate: connections, pools and heap settle.
	account(env.phase(schedule(rng, refRate, total/10, &next), 0))

	env.tr = tr
	before := readMem()
	start := time.Now()
	ref := env.phase(schedule(rng, refRate, refDur, &next), 0)
	r.busy = time.Since(start).Seconds()
	after := readMem()
	env.tr = nil
	account(ref)
	for i, o := range ref {
		r.addLat(ms(o.latency), tr != nil && i%2 == 0)
		r.sloAttempted++
		if o.err == nil {
			r.flop += float64(o.flop)
			if ms(o.latency) <= serveLimitMs {
				r.sloMet++
			}
		}
	}

	if tr == nil {
		// Bisect the ladder: the reference phase is the first probe, each
		// further probe gets an equal share of the remaining time. A rung
		// fails only when two probes in a row miss the limit, so one host
		// stall does not end the search early.
		lo, hi := -1, len(serveLadder)
		if meetsLimit(ref) {
			lo = serveRefRung
		} else {
			hi = serveRefRung
		}
		const maxProbes = 10
		probeDur := (total - total/10 - refDur) / maxProbes
		probe := func(rung int) bool {
			outs := env.phase(schedule(rng, serveLadder[rung], probeDur, &next), 0)
			account(outs)
			return meetsLimit(outs)
		}
		for probes := 0; hi-lo > 1 && probes < maxProbes; probes++ {
			mid := (lo + hi) / 2
			pass := probe(mid)
			if !pass && probes+1 < maxProbes {
				probes++
				pass = probe(mid)
			}
			if pass {
				lo = mid
			} else {
				hi = mid
			}
		}
		if lo >= 0 {
			r.rps = serveLadder[lo]
		}
	} else {
		serveLayers(r.layers, ref)
		memPerOp(r.layers, before, after, len(ref))
		r.layers["spgemm.compression_ratio"] = float64(hotFlop) / float64(hotNNZ)
		r.layers["spgemm.numeric_bytes"] = float64(hotBytes) / servePairs
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "serve_replay: first failed request: %v\n", firstErr)
	}
	return nil
}

// meetsLimit reports whether a phase met the latency limit without a
// growing backlog: every request answered correctly, the tail percentile
// within the limit, and the median of the last tenth of requests too.
func meetsLimit(outs []outcome) bool {
	if len(outs) == 0 {
		return false
	}
	lat := make([]float64, len(outs))
	for i, o := range outs {
		if o.err != nil {
			return false
		}
		lat[i] = ms(o.latency)
	}
	last := lat[len(lat)-max(1, len(lat)/10):]
	return quantile(lat, tailPercentile(len(lat))) <= serveLimitMs && median(last) <= serveLimitMs
}

// serveLayers fills the server, wire and load-generator per-layer metrics
// from the reference phase.
func serveLayers(layers map[string]float64, outs []outcome) {
	var hit, miss, queue, gap, upload, encode, decode, lag []float64
	var hits, answered, rejected int
	for _, o := range outs {
		lag = append(lag, ms(o.lag))
		if o.rejected {
			rejected++
		}
		if o.upload > 0 {
			upload = append(upload, ms(o.upload))
			encode = append(encode, ms(o.encode))
		}
		if o.decode > 0 {
			decode = append(decode, ms(o.decode))
		}
		if o.err != nil || !o.multiplied {
			continue
		}
		answered++
		if o.planHit {
			hits++
		}
		if !o.hasServer {
			continue
		}
		service := ms(o.server - o.queue)
		if o.planHit {
			hit = append(hit, service)
		} else {
			miss = append(miss, service)
		}
		queue = append(queue, ms(o.queue))
		gap = append(gap, ms(o.roundTrip-o.server))
	}
	layers["server.hit_ms"] = medianOr(hit)
	layers["server.miss_ms"] = medianOr(miss)
	layers["server.queue_ms"] = medianOr(queue)
	layers["server.gap_ms"] = medianOr(gap)
	layers["server.upload_ms"] = medianOr(upload)
	layers["wire.encode_ms"] = medianOr(encode)
	layers["wire.decode_ms"] = medianOr(decode)
	layers["loadgen.lag_ms"] = medianOr(lag)
	if answered > 0 {
		layers["server.plan_hit_ratio"] = float64(hits) / float64(answered)
	}
	layers["server.rejected_ratio"] = float64(rejected) / float64(len(outs))
}
