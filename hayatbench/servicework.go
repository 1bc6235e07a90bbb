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
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/merkle"
	"github.com/kit-ces/hayat/internal/persist"
	"github.com/kit-ces/hayat/internal/service"
)

const (
	// svcChips is the fixed chip set the sweep runs over; their artifacts
	// are built during warm-up so that timed misses cost simulation, not
	// a fresh aging table.
	svcChips = 4
	// svcHitEvery makes every svcHitEvery-th request of a client repeat a
	// key that client already completed, so exactly 1/svcHitEvery of the
	// requests are result-cache hits.
	svcHitEvery = 4
	// readyTimeout bounds how long a node set may take to become ready.
	readyTimeout = 30 * time.Second
)

// svcDarkFractions are the sweep's dark-silicon fractions.
var svcDarkFractions = []float64{0.25, 0.375, 0.5, 0.625}

// serviceWorkload sends a parameter sweep of small lifetime jobs over
// loopback HTTP (wait:true) to an in-process service node, alone or as
// the entry node of a cluster, with journal, result store, checkpoints
// and audit log on disk.
type serviceWorkload struct {
	nodes int
	// itemSeconds is the nominal latency of one request per client on
	// the two-core reference host. It only sizes the fixed request list.
	itemSeconds float64
}

// svcConfig is a sweep point: a one-year 4×4 chip, default otherwise.
func svcConfig(mix int64, dark float64) hayat.Config {
	cfg := hayat.DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.Years = 4, 4, 1
	cfg.MixSeed, cfg.DarkFraction = mix, dark
	return cfg
}

// svcItem is one request of a client's list.
type svcItem struct {
	chip     int64
	mix      int64
	dark     float64
	repeatOf int // index of the earlier miss this request repeats, or -1
}

// svcPlan draws each client's request list from the seed: misses with
// fresh (MixSeed, DarkFraction) points over the chip set, and every
// svcHitEvery-th request a repeat of one of the client's earlier misses.
func svcPlan(seed int64, chips []int64, perClient, nClients int) [][]svcItem {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	warmMix := hayat.DefaultConfig().MixSeed
	usedMix := map[int64]bool{warmMix: true}
	plan := make([][]svcItem, nClients)
	for c := range plan {
		var misses []int
		for i := 0; i < perClient; i++ {
			if i%svcHitEvery == svcHitEvery-1 {
				j := misses[rng.Intn(len(misses))]
				it := plan[c][j]
				it.repeatOf = j
				plan[c] = append(plan[c], it)
				continue
			}
			mix := rng.Int63n(1 << 40)
			for usedMix[mix] {
				mix = rng.Int63n(1 << 40)
			}
			usedMix[mix] = true
			misses = append(misses, i)
			plan[c] = append(plan[c], svcItem{
				chip:     chips[rng.Intn(len(chips))],
				mix:      mix,
				dark:     svcDarkFractions[rng.Intn(len(svcDarkFractions))],
				repeatOf: -1,
			})
		}
	}
	return plan
}

// svcNode is one in-process service node serving HTTP on loopback.
type svcNode struct {
	srv  *service.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

// svcCluster is the node set of one run; node 0 takes every request.
type svcCluster struct {
	nodes []*svcNode
}

// start brings up the node set under dir and waits until every node is
// ready.
func (w serviceWorkload) start(dir string) (*svcCluster, error) {
	lns, err := listenNodes(w.nodes)
	if err != nil {
		return nil, err
	}
	urls := make([]string, w.nodes)
	for i, ln := range lns {
		urls[i] = "http://" + ln.Addr().String()
	}
	c := &svcCluster{}
	abort := func(i int, err error) (*svcCluster, error) {
		c.stop()
		for _, l := range lns[i:] {
			l.Close()
		}
		return nil, err
	}
	for i, ln := range lns {
		nd := filepath.Join(dir, fmt.Sprintf("node%d", i))
		opts := service.Options{
			DataDir:       filepath.Join(nd, "data"),
			JournalPath:   filepath.Join(nd, "journal.log"),
			CheckpointDir: filepath.Join(nd, "checkpoints"),
			AuditPath:     filepath.Join(nd, "audit.log"),
		}
		if w.nodes > 1 {
			var peers []string
			for j, u := range urls {
				if j != i {
					peers = append(peers, u)
				}
			}
			opts.Cluster = service.ClusterOptions{Self: urls[i], Peers: peers}
		}
		if err := os.MkdirAll(nd, 0o755); err != nil {
			return abort(i, fmt.Errorf("creating node dir: %w", err))
		}
		srv, err := service.New(opts)
		if err != nil {
			return abort(i, fmt.Errorf("starting node %d: %w", i, err))
		}
		n := &svcNode{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: urls[i], done: make(chan struct{})}
		go func(n *svcNode, ln net.Listener) {
			defer close(n.done)
			_ = n.hs.Serve(ln) // returns ErrServerClosed on stop
		}(n, ln)
		c.nodes = append(c.nodes, n)
	}
	deadline := time.Now().Add(readyTimeout)
	for !c.ready() {
		if time.Now().After(deadline) {
			c.stop()
			return nil, errors.New("nodes not ready in time")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return c, nil
}

// clusterPortBase is the first of the fixed loopback ports a cluster's
// nodes listen on. Nodes place keys on the hash ring by their URLs, so
// fixed URLs make the share of keys the entry node forwards depend on the
// request list alone; random ports would move it from run to run.
const clusterPortBase = 47311

// listenNodes opens one loopback listener per node: on fixed ports for a
// cluster, falling back to free ports (and a run-dependent ring) only
// when a fixed port is taken.
func listenNodes(n int) ([]net.Listener, error) {
	listen := func(port int) ([]net.Listener, error) {
		var lns []net.Listener
		for i := 0; i < n; i++ {
			p := 0
			if port > 0 {
				p = port + i
			}
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err != nil {
				for _, l := range lns {
					l.Close()
				}
				return nil, fmt.Errorf("listening: %w", err)
			}
			lns = append(lns, ln)
		}
		return lns, nil
	}
	if n > 1 {
		if lns, err := listen(clusterPortBase); err == nil {
			return lns, nil
		}
		fmt.Fprintf(os.Stderr, "hayatbench: ports %d-%d taken; the cluster uses free ports and a different ring\n", clusterPortBase, clusterPortBase+n-1)
	}
	return listen(0)
}

func (c *svcCluster) ready() bool {
	for _, n := range c.nodes {
		if !n.srv.Readiness().Ready {
			return false
		}
	}
	return true
}

// stop shuts every node down and waits for its HTTP server to return.
func (c *svcCluster) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, n := range c.nodes {
		_ = n.hs.Close() // nothing is in flight once the clients have returned
	}
	for _, n := range c.nodes {
		<-n.done
		_ = n.srv.Shutdown(ctx) // a drain past the deadline only abandons queued work
	}
}

// coldStart times one start of a fresh node set on empty directories,
// until every node is ready, and stops it again.
func (w serviceWorkload) coldStart(r *runner) (time.Duration, error) {
	dir := filepath.Join(r.dir, fmt.Sprintf("start%d", len(r.setups)))
	t0 := time.Now()
	c, err := w.start(dir)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	c.stop()
	if err := os.RemoveAll(dir); err != nil {
		return 0, fmt.Errorf("removing start dir: %w", err)
	}
	return d, nil
}

// svcReply is the part of a job status the client checks.
type svcReply struct {
	ID     string `json:"job_id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

func (w serviceWorkload) run(ctx context.Context, r *runner) error {
	start := func() (time.Duration, error) { return w.coldStart(r) }
	if err := r.sampleSetup(start); err != nil {
		return err
	}
	c, err := w.start(filepath.Join(r.dir, "run"))
	if err != nil {
		return err
	}
	defer func() {
		if c != nil {
			c.stop()
		}
	}()
	entry := c.nodes[0]
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: r.clients}}
	defer client.CloseIdleConnections()

	chips := chipSeeds(r.seed, svcChips)
	if err := w.warm(ctx, r, c, client, chips); err != nil {
		return err
	}

	perClient := max(2*svcHitEvery, int(math.Round(float64(r.seconds)/w.itemSeconds/svcHitEvery))*svcHitEvery)
	plan := svcPlan(r.seed, chips, perClient, r.clients)
	log := newOutputLog(r.clients * perClient)
	missLat := make([][]float64, r.clients)
	hitLat := make([][]float64, r.clients)

	before := snapshotAll(c)
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	var wg sync.WaitGroup
	begin := time.Now()
	for ci := 0; ci < r.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			canon := make([][]byte, perClient) // canonical bytes of this client's misses
			for i, it := range plan[ci] {
				if ctx.Err() != nil {
					return
				}
				idx := ci*perClient + i
				r.attempted.Add(1)
				d, data, cached, err := w.request(ctx, r, entry, client, ci, int64(idx+1), it)
				if err == nil {
					err = checkReply(it, data, cached, canon, func(rec persist.ResultRecord) { log.add(idx, data, rec) })
				}
				if err != nil {
					r.fail(fmt.Errorf("client %d request %d: %w", ci, i, err))
					continue
				}
				if it.repeatOf >= 0 {
					hitLat[ci] = append(hitLat[ci], d)
					continue
				}
				canon[i] = data
				missLat[ci] = append(missLat[ci], d)
			}
		}(ci)
	}
	wg.Wait()
	wall := time.Since(begin)
	runtime.ReadMemStats(&msAfter)

	if w.nodes > 1 {
		debt, err := drainReplication(ctx, c, client)
		r.set("store.replication_debt_end", float64(debt), w.nodes)
		r.check(err)
	}
	after := snapshotAll(c)
	c.stop()
	c = nil
	if err := r.sampleSetup(start); err != nil {
		return err
	}

	var misses, hits []float64
	for ci := range missLat {
		misses = append(misses, missLat[ci]...)
		hits = append(hits, hitLat[ci]...)
	}
	total := r.clients * perClient
	hitShare := float64(len(hits)) / float64(total)
	var shareErr error
	if want := 1.0 / svcHitEvery; hitShare != want {
		shareErr = fmt.Errorf("hit share %.4f, planned %.4f", hitShare, want)
	}
	r.check(shareErr)
	mt, ht := newTiming(misses), newTiming(hits)
	r.set("jobs_per_s", float64(len(misses)+len(hits))/wall.Seconds(), len(misses)+len(hits))
	r.set("job_s_p50", mt.median(), mt.n())
	r.setTail("job_s_p90", mt, 0.9)
	r.set("hit_s_p50", ht.median(), ht.n())
	r.set("service.hit_share", hitShare, total)

	d := diffSnapshots(before, after)
	for _, st := range []string{"admission", "queue_wait", "setup", "simulate", "encode"} {
		h := d.stage[st]
		r.set("service."+st+"_s", h.mean(), int(h.n))
	}
	for _, st := range []string{"mapping", "thermal", "aging"} {
		r.set("epoch."+st+"_s.hayat", d.epoch[st]/float64(total), total)
	}
	r.set("service.cache_hit_ratio", ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMisses)), int(d.cacheHits+d.cacheMisses))
	r.set("service.sim_runs", float64(d.simRuns), 1)
	r.set("service.coalesced", float64(d.coalesced), 1)
	r.set("cluster.forward_s", d.forward.mean(), int(d.forward.n))
	r.set("cluster.forwards", float64(d.forwards), 1)
	r.set("store.replica_puts", float64(d.replicaPuts), 1)
	r.set("store.replica_put_errors", float64(d.replicaPutErrs), 1)
	r.set("artifacts.hit_ratio", ratio(float64(d.artHits), float64(d.artHits+d.artMisses)), int(d.artHits+d.artMisses))
	chipYears := float64(d.simRuns) * svcConfig(0, 0.5).Years
	r.set("runtime.alloc_mb_per_chip_year", ratio(float64(msAfter.TotalAlloc-msBefore.TotalAlloc)/1e6, chipYears), int(d.simRuns))
	r.set("runtime.gc_cycles", float64(msAfter.NumGC-msBefore.NumGC), 1)
	r.setSimStats(log.stats(), len(misses))
	r.digest = log.digest()

	if r.tr != nil {
		ids := make(map[int64]bool, total)
		for j := 1; j <= total; j++ {
			ids[int64(j)] = true
		}
		r.setProfile(profileJobs(r.tr.snapshot(), ids), map[string]string{
			"service.http_s":   spanHTTP,
			"service.result_s": spanResult,
			"service.proof_s":  spanProof,
		})
	}
	return nil
}

// warm builds every node's artifacts for the chip set, by running one
// job per chip on each node itself, and opens the clients' connections
// with a few cache-hit requests. None of it is measured.
func (w serviceWorkload) warm(ctx context.Context, r *runner, c *svcCluster, client *http.Client, chips []int64) error {
	warmMix := hayat.DefaultConfig().MixSeed
	type pending struct {
		n  *svcNode
		id string
	}
	var jobs []pending
	for _, n := range c.nodes {
		for _, chip := range chips {
			st, err := n.srv.SubmitLifetimeWith(svcConfig(warmMix, 0.5), chip, "hayat", service.SubmitOpts{Client: "warm-up", NoForward: true})
			if err != nil {
				return fmt.Errorf("warm-up submit: %w", err)
			}
			jobs = append(jobs, pending{n, st.ID})
		}
	}
	for _, j := range jobs {
		st, err := j.n.srv.Wait(ctx, j.id)
		if err != nil {
			return fmt.Errorf("warm-up wait: %w", err)
		}
		if st.State != service.JobDone {
			return fmt.Errorf("warm-up job %s: %s %s", j.id, st.State, st.Error)
		}
	}
	var wg sync.WaitGroup
	for ci := 0; ci < r.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for _, chip := range chips {
				r.attempted.Add(1)
				it := svcItem{chip: chip, mix: warmMix, dark: 0.5, repeatOf: -1}
				if _, _, err := postLifetime(ctx, client, c.nodes[0].url, lifetimeBody(ci, it)); err != nil {
					r.fail(fmt.Errorf("warm-up request: %w", err))
				}
			}
		}(ci)
	}
	wg.Wait()
	return nil
}

// lifetimeBody is the POST /v1/lifetime body for one sweep point.
func lifetimeBody(ci int, it svcItem) []byte {
	raw, _ := json.Marshal(svcConfig(it.mix, it.dark)) // plain data: cannot fail
	body, _ := json.Marshal(service.LifetimeRequest{
		Config: raw, Seed: it.chip, Policy: "hayat", Wait: true, Client: fmt.Sprintf("client%d", ci),
	})
	return body
}

// postLifetime submits one job with wait:true and returns the decoded
// reply with the time the round trip took.
func postLifetime(ctx context.Context, client *http.Client, url string, body []byte) (svcReply, float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/lifetime", bytes.NewReader(body))
	if err != nil {
		return svcReply{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return svcReply{}, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0).Seconds()
	if err != nil {
		return svcReply{}, d, fmt.Errorf("reading reply: %w", err)
	}
	var rep svcReply
	if resp.StatusCode != http.StatusOK {
		return rep, d, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, d, fmt.Errorf("decoding reply: %w", err)
	}
	if rep.State != string(service.JobDone) {
		return rep, d, fmt.Errorf("job %s is %s: %s", rep.ID, rep.State, rep.Error)
	}
	return rep, d, nil
}

// request sends one timed request and fetches the result's canonical
// bytes from the entry node. The traced run also fetches the result's
// Merkle inclusion proof and verifies it. The returned latency is the
// HTTP round trip alone: what the client waits for its answer.
func (w serviceWorkload) request(ctx context.Context, r *runner, entry *svcNode, client *http.Client, ci int, job int64, it svcItem) (float64, []byte, bool, error) {
	tr := r.tr
	body := lifetimeBody(ci, it)
	js := tr.start(spanJob, 0, job)
	hs := tr.start(spanHTTP, js.ID, job)
	rep, d, err := postLifetime(ctx, client, entry.url, body)
	tr.finish(hs)
	if err != nil {
		tr.finish(js)
		return 0, nil, false, err
	}
	var data []byte
	err = tr.within(spanResult, js.ID, job, func(int64) error {
		var err error
		data, err = entry.srv.Result(rep.ID)
		return err
	})
	if err != nil || tr == nil {
		tr.finish(js)
		return d, data, rep.Cached, err
	}
	var pr service.ProofResponse
	err = tr.within(spanProof, js.ID, job, func(int64) error {
		var err error
		pr, err = entry.srv.Proof(rep.ID)
		return err
	})
	tr.finish(js)
	if err != nil {
		return d, data, rep.Cached, fmt.Errorf("proof: %w", err)
	}
	root, err := merkle.ParseHash(pr.Root)
	if err == nil {
		err = merkle.Verify(pr.Proof, data, root)
	}
	if err != nil {
		return d, data, rep.Cached, fmt.Errorf("proof of job %s does not verify: %w", rep.ID, err)
	}
	return d, data, rep.Cached, nil
}

// checkReply checks one answer: a miss must be a fresh, valid result for
// its sweep point (passed to keep), and a hit must carry exactly the
// bytes of the miss it repeats.
func checkReply(it svcItem, data []byte, cached bool, canon [][]byte, keep func(persist.ResultRecord)) error {
	if it.repeatOf >= 0 {
		if !cached {
			return fmt.Errorf("repeat of request %d was not a cache hit", it.repeatOf)
		}
		if !bytes.Equal(data, canon[it.repeatOf]) {
			return fmt.Errorf("hit bytes differ from request %d's miss", it.repeatOf)
		}
		return nil
	}
	if cached {
		return errors.New("fresh sweep point answered from cache")
	}
	rec, err := checkResult(data, "Hayat", it.chip, 4)
	if err != nil {
		return err
	}
	if rec.DarkFraction != it.dark {
		return fmt.Errorf("dark fraction %v, want %v", rec.DarkFraction, it.dark)
	}
	keep(rec)
	return nil
}

// drainReplication waits until no node owes a replica copy, reading the
// debt gauge from each node's /metrics, and returns the final total.
func drainReplication(ctx context.Context, c *svcCluster, client *http.Client) (int, error) {
	deadline := time.Now().Add(20 * time.Second)
	for {
		total := 0
		for _, n := range c.nodes {
			debt, err := replicationDebt(ctx, client, n.url)
			if err != nil {
				return 0, err
			}
			total += debt
		}
		if total == 0 {
			return 0, nil
		}
		if time.Now().After(deadline) {
			return total, fmt.Errorf("replication debt %d after drain", total)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func replicationDebt(ctx context.Context, client *http.Client, url string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("reading metrics: %w", err)
	}
	defer resp.Body.Close()
	var m struct {
		Store struct {
			Debt int `json:"replication_debt"`
		} `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return 0, fmt.Errorf("decoding metrics: %w", err)
	}
	return m.Store.Debt, nil
}

// nodeSnapshot is one node's exported counters at one moment.
type nodeSnapshot struct {
	m    service.MetricsSnapshot
	arts hayat.ArtifactStats
}

func snapshotAll(c *svcCluster) []nodeSnapshot {
	out := make([]nodeSnapshot, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = nodeSnapshot{m: n.srv.Metrics().Snapshot(), arts: n.srv.ArtifactStats()}
	}
	return out
}

// histDelta is what a latency histogram gained between two snapshots,
// summed over nodes. Only its count and sum are used: the histogram's
// lowest bucket spans 0–1 ms, where most service stages fall, so a
// percentile read from the buckets would not resolve them.
type histDelta struct {
	n, sum float64
}

func (h *histDelta) add(after, before service.HistogramSnapshot) {
	h.n += float64(after.Count - before.Count)
	h.sum += after.SumSeconds - before.SumSeconds
}

// mean is the average observation, in seconds.
func (h *histDelta) mean() float64 {
	if h == nil {
		return 0
	}
	return ratio(h.sum, h.n)
}

// svcDelta is what the node set did during the timed phase.
type svcDelta struct {
	stage   map[string]*histDelta
	epoch   map[string]float64 // stage → seconds
	forward histDelta

	cacheHits, cacheMisses, simRuns, coalesced int64
	forwards, replicaPuts, replicaPutErrs      int64
	artHits, artMisses                         int64
}

func diffSnapshots(before, after []nodeSnapshot) svcDelta {
	d := svcDelta{stage: map[string]*histDelta{}, epoch: map[string]float64{}}
	for i := range after {
		a, b := after[i].m, before[i].m
		for name, h := range a.StageSeconds {
			if d.stage[name] == nil {
				d.stage[name] = &histDelta{}
			}
			d.stage[name].add(h, b.StageSeconds[name])
		}
		for name, e := range a.EpochStages {
			d.epoch[name] += e.SumSeconds - b.EpochStages[name].SumSeconds
		}
		d.forward.add(a.Cluster.ForwardSeconds, b.Cluster.ForwardSeconds)
		d.cacheHits += a.Cache.Hits - b.Cache.Hits
		d.cacheMisses += a.Cache.Misses - b.Cache.Misses
		d.simRuns += a.SimRuns - b.SimRuns
		d.coalesced += a.Jobs.Coalesced - b.Jobs.Coalesced
		d.forwards += a.Cluster.Forwards - b.Cluster.Forwards
		d.replicaPuts += a.Store.ReplicaPuts - b.Store.ReplicaPuts
		d.replicaPutErrs += a.Store.ReplicaPutErrs - b.Store.ReplicaPutErrs
		d.artHits += after[i].arts.Hits - before[i].arts.Hits
		d.artMisses += after[i].arts.Misses - before[i].arts.Misses
	}
	return d
}
