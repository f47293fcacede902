package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/smt"
	"repro/internal/tv"
	"repro/internal/tvd"
)

// The daemon-mixed traffic: every client runs cycles of daemonCycle
// batches. Each batch re-submits daemonHitJobs warm functions; the last
// batch of a cycle also carries daemonMissJobs functions no one has
// submitted before. The warm set and the unseen pool are not multiples
// of the batch sizes, so which functions share a batch keeps changing
// over a run instead of being fixed by the seed.
const (
	daemonWarm     = 25
	daemonHitJobs  = 4
	daemonMissJobs = 2
	daemonCycle    = 5
)

// designedHitShare is the share of rows the store must serve: the warm
// rows over all rows of a cycle. Clients only stop at cycle boundaries,
// so a run's measured share equals it exactly.
func designedHitShare() float64 {
	warm := daemonCycle * daemonHitJobs
	return float64(warm) / float64(warm+daemonMissJobs)
}

// daemonWorkload is an in-process tvd server with a fresh result store
// on a loopback listener, driven by a closed loop of clients.
type daemonWorkload struct {
	seed    int64
	seconds time.Duration
	workers int
	clients int
	tmp     string
	setups  int

	srv       *tvd.Server
	hs        *http.Server
	served    chan error
	addr      string
	warm      []tvd.JobRequest
	warmClass map[string]string // store key → class validated in setup
	unseen    *unseenStream
	setupFail []string // known-answer violations of the warm-set fill
}

// daemonUnseenPool is the number of distinct functions behind the
// unseen stream (see daemonWarm for why it is odd).
const daemonUnseenPool = 63

func jobOf(f corpus.Function) tvd.JobRequest { return tvd.JobRequest{Fn: f.Name, IR: f.Src} }

func (w *daemonWorkload) request(tenant string, jobs []tvd.JobRequest) *tvd.BatchRequest {
	return &tvd.BatchRequest{
		Tenant: tenant, Jobs: jobs, Proofs: true,
		MaxTermNodes: maxTermNodes, ConflictBudget: conflictBudget,
	}
}

func (w *daemonWorkload) setup(tr *tracer) (setupTimes, error) {
	w.teardown()
	w.setups++
	t0 := time.Now()
	sp := tr.start(nil, "corpus.Generate")
	w.inputs()
	sp.end()
	gen := time.Since(t0)

	srv, err := tvd.NewServer(tvd.ServerConfig{
		Workers:  w.workers,
		StoreDir: filepath.Join(w.tmp, fmt.Sprintf("store-%d", w.setups)),
		WorkDir:  w.tmp,
	})
	if err != nil {
		return setupTimes{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return setupTimes{}, err
	}
	w.srv, w.addr = srv, ln.Addr().String()
	w.hs = &http.Server{Handler: srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()

	// Fill the store with the warm set. Rows the store keeps (every
	// class but Timeout) are the warm set the clients re-submit.
	jobs := w.warm
	sp = tr.start(nil, "tvd.Client.ValidateAll")
	res, err := tvd.NewClient(w.addr).ValidateAll(w.request("setup", jobs), nil)
	sp.end()
	if err != nil {
		return setupTimes{}, fmt.Errorf("filling the store: %w", err)
	}
	w.warm, w.warmClass, w.setupFail = nil, map[string]string{}, nil
	for _, row := range res.Rows {
		if row.Class == tv.ClassOther.String() {
			w.setupFail = append(w.setupFail, fmt.Sprintf("warm fill %s: Other: %s", row.Fn, row.Err))
			continue
		}
		if row.Class == tv.ClassTimeout.String() {
			continue
		}
		w.warm = append(w.warm, jobs[row.Index])
		w.warmClass[row.Key] = row.Class
	}
	if len(w.warm) < daemonHitJobs {
		return setupTimes{}, fmt.Errorf("only %d warm functions were stored", len(w.warm))
	}
	return setupTimes{total: time.Since(t0), generate: gen}, nil
}

// inputs sets the warm set and the unseen stream: disjoint parts of the
// reference corpus, in the order the seed derives. The unseen functions
// are cheap ones, so a miss batch costs the store write path and the
// pipeline rather than one hard SAT query: this workload is about the
// store and the daemon, and the corpus workloads cover the solver.
func (w *daemonWorkload) inputs() {
	warm := referenceCorpus(daemonWarm, small)
	w.warm = nil
	for _, f := range permute(warm, w.seed) {
		w.warm = append(w.warm, jobOf(f))
	}
	isWarm := map[string]bool{}
	for _, f := range warm {
		isWarm[f.Name] = true
	}
	pool := referenceCorpus(daemonWarm+daemonUnseenPool, func(f corpus.Function) bool {
		return isWarm[f.Name] || cheap(f)
	})
	var unseen []corpus.Function
	for _, f := range pool {
		if !isWarm[f.Name] {
			unseen = append(unseen, f)
		}
	}
	w.unseen = &unseenStream{pool: permute(unseen[:daemonUnseenPool], w.seed)}
}

// teardown stops the listener, drains the daemon and waits for both.
func (w *daemonWorkload) teardown() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w.hs.Shutdown(ctx)
	w.srv.Close()
	<-w.served
	w.srv = nil
}

func (w *daemonWorkload) describe() string {
	return fmt.Sprintf("warm=%d clients=%d workers=%d batch=%d warm (+%d unseen every %dth) designed_hit_share=%.6f",
		len(w.warm), w.clients, w.workers, daemonHitJobs, daemonMissJobs, daemonCycle, designedHitShare())
}

// batchObs is what one client saw of one batch.
type batchObs struct {
	lat      time.Duration
	rows     int
	hitRows  int
	missRows int
	decided  int
	// overhead is the client's batch time minus the server-side span of
	// its rows (first submission to last finish).
	overhead  time.Duration
	missDur   []float64 // server validation time of each unseen row
	queue     []float64 // server queue wait of each unseen row
	certBytes int64
	smt       smt.Stats
	failed    int
	problems  []string
}

// daemonWindows is how many consecutive windows the measured phase's
// closed loop is split into (see combine).
const daemonWindows = 5

// measure runs the closed loop for the workload's seconds, as
// daemonWindows consecutive windows.
func (w *daemonWorkload) measure(tr *tracer) (*phase, error) {
	var windows []*phase
	for i := 0; i < daemonWindows; i++ {
		ph, err := w.window(tr, w.seconds/daemonWindows)
		if err != nil {
			return nil, err
		}
		windows = append(windows, ph)
	}
	return combine(windows), nil
}

// window runs the closed loop for d. Clients only stop at a cycle
// boundary, so every window issues whole cycles.
func (w *daemonWorkload) window(tr *tracer, d time.Duration) (*phase, error) {
	ph := newPhase()
	admin := tvd.NewClient(w.addr)
	before, err := admin.Metricsz()
	if err != nil {
		return nil, err
	}
	obs := make([][]batchObs, w.clients)
	u0 := readUsage()
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := tvd.NewClient(w.addr)
			root := tr.start(nil, "bench.client")
			defer root.end()
			next := c * len(w.warm) / w.clients
			for cycle := 0; cycle == 0 || time.Now().Before(end); cycle++ {
				for b := 0; b < daemonCycle; b++ {
					jobs := make([]tvd.JobRequest, 0, daemonHitJobs+daemonMissJobs)
					for k := 0; k < daemonHitJobs; k++ {
						jobs = append(jobs, w.warm[next%len(w.warm)])
						next++
					}
					if b == daemonCycle-1 {
						for _, f := range w.unseen.take(daemonMissJobs) {
							jobs = append(jobs, jobOf(f))
						}
					}
					sp := tr.start(root, "tvd.Client.Validate")
					t0 := time.Now()
					res, err := cl.Validate(w.request(fmt.Sprintf("client-%d", c), jobs), nil)
					lat := time.Since(t0)
					sp.end()
					obs[c] = append(obs[c], w.observe(jobs, res, err, lat))
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	u1 := readUsage()
	after, err := admin.Metricsz()
	if err != nil {
		return nil, err
	}

	var (
		rowLat, batchLat, hitRowCost, missDur, queue, overhead []float64
		rows, hits, misses, decided                            int
		certBytes                                              int64
		st                                                     smt.Stats
	)
	for _, list := range obs {
		for _, o := range list {
			for i := 0; i < o.rows; i++ {
				// A caller holds a row's verdict and certificates once its
				// batch's summary arrives.
				rowLat = append(rowLat, o.lat.Seconds())
			}
			batchLat = append(batchLat, o.lat.Seconds())
			if o.missRows == 0 && o.rows > 0 {
				hitRowCost = append(hitRowCost, o.lat.Seconds()/float64(o.rows))
			}
			overhead = append(overhead, o.overhead.Seconds())
			missDur = append(missDur, o.missDur...)
			queue = append(queue, o.queue...)
			rows += o.rows
			hits += o.hitRows
			misses += o.missRows
			decided += o.decided
			certBytes += o.certBytes
			st.Add(o.smt)
			ph.attempted += o.rows
			ph.failed += o.failed
			ph.problems = append(ph.problems, o.problems...)
		}
	}
	if rows == 0 {
		return nil, errors.New("no batch returned a row")
	}
	ph.latencies = rowLat
	ph.e2e["fn_per_s"] = float64(rows) / wall.Seconds()
	ph.e2e["decided_share"] = float64(decided) / float64(rows)
	ph.e2e["cpu_s_per_fn"] = (u1.cpu - u0.cpu).Seconds() / float64(rows)
	ph.e2e["peak_rss_mb"] = float64(u1.maxRSS) / 1e6

	ph.layer["tvd.batch_latency_p50_s"] = percentile(batchLat, 0.5)
	ph.layer["tvd.batch_latency_p90_s"] = percentile(batchLat, 0.9)
	ph.layer["tvd.overhead_s"] = median(overhead)
	ph.layer["tvd.queue_p50_s"] = median(queue)
	ph.layer["tvd.miss_row_s"] = median(missDur)
	ph.layer["tvd.refused"] = float64(after.Counters["tvd.rejected"] - before.Counters["tvd.rejected"])
	ph.layer["store.hit_ratio"] = ratio(int64(hits), int64(hits+misses))
	ph.layer["store.hit_row_s"] = median(hitRowCost)
	ph.layer["store.bytes"] = float64(after.StoreBytes)
	ph.layer["proof.cert_kb_per_fn"] = float64(certBytes) / 1024 / float64(rows)
	smtLayer(ph.layer, st)
	ph.counters = countersOf(st)
	ph.notes = append(ph.notes, fmt.Sprintf("batches=%d rows=%d store_hits=%d store_misses=%d", len(batchLat), rows, hits, misses))
	return ph, nil
}

// observe checks one batch against its known answers and extracts the
// batch's measurements.
func (w *daemonWorkload) observe(jobs []tvd.JobRequest, res *tvd.BatchResult, err error, lat time.Duration) batchObs {
	o := batchObs{lat: lat}
	if err != nil {
		o.rows, o.failed = len(jobs), len(jobs)
		o.problems = append(o.problems, fmt.Sprintf("batch of %d failed: %v", len(jobs), err))
		return o
	}
	if len(res.Rows) != len(jobs) {
		o.rows, o.failed = len(jobs), len(jobs)
		o.problems = append(o.problems, fmt.Sprintf("batch of %d returned %d rows", len(jobs), len(res.Rows)))
		return o
	}
	o.rows, o.hitRows, o.missRows = len(jobs), res.StoreHits, res.StoreMisses
	first, last := int64(-1), int64(0)
	for i, row := range res.Rows {
		bad := ""
		warmClass, warm := w.warmClass[row.Key]
		switch {
		case row.Class == tv.ClassOther.String():
			bad = "classed Other: " + row.Err
		case i < daemonHitJobs && !warm:
			bad = "warm job answered under an unknown store key"
		case i < daemonHitJobs && !row.Cached:
			bad = "warm job was validated again instead of served from the store"
		case i < daemonHitJobs && row.Class != warmClass:
			bad = fmt.Sprintf("store served class %q, setup validated %q", row.Class, warmClass)
		case i >= daemonHitJobs && row.Cached:
			bad = "unseen job was served from the store"
		}
		if bad != "" {
			o.failed++
			o.problems = append(o.problems, fmt.Sprintf("%s: %s", row.Fn, bad))
		}
		if row.Class == tv.ClassSucceeded.String() || row.Class == tv.ClassNotValidated.String() {
			o.decided++
		}
		if !row.Cached {
			o.missDur = append(o.missDur, time.Duration(row.DurationNS).Seconds())
			o.queue = append(o.queue, time.Duration(row.StartedNS-row.SubmittedNS).Seconds())
		}
		if first < 0 || row.SubmittedNS < first {
			first = row.SubmittedNS
		}
		last = max(last, row.FinishedNS)
		for _, a := range row.Artifacts {
			o.certBytes += int64(len(a.Data))
		}
	}
	o.overhead = lat - time.Duration(last-first)
	if s := res.Stats; s != nil {
		o.smt = smt.Stats{
			Queries: s.SMT.Queries, FastQueries: s.SMT.FastQueries,
			CacheHits: s.SMT.CacheHits, CacheMisses: s.SMT.CacheMisses,
			SATConflicts: s.SMT.Conflicts, SATDecisions: s.SMT.Decisions, CNFClauses: s.SMT.Clauses,
			Certificates: s.SMT.Certificates, Races: s.SMT.Races, RaceRacerWins: s.SMT.RaceRacerWins,
			RaceWastedConflicts: s.SMT.RaceWastedConflicts, CubeEscalations: s.SMT.CubeEscalations,
			CubesGenerated: s.SMT.CubesGenerated, CubesRefuted: s.SMT.CubesRefuted,
		}
	}
	return o
}
