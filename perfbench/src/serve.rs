//! `serve_mixed`: an in-process `isobar serve` with its shipped
//! defaults (WAL fsync before every ack, Ratio preference, 64 MiB
//! commit threshold) under `nproc` closed-loop clients. Each client, as
//! its own tenant, puts a 256 KiB corpus slice and then gets one key:
//! half the time the key just written, otherwise a seeded-uniform
//! earlier one.

use crate::corpus::{Corpus, Dataset, DATASETS};
use crate::env::{self, Scratch};
use crate::layers::{LayerTally, ReplayScratch};
use crate::stats::{percentile_or_lower, ratio};
use crate::tracer::{self, Tracer};
use crate::{latency_metrics, timed_setup, Config, Outcome, Rng, Rounds, Workload, MIN_SAMPLES};
use isobar_server::core::GetSource;
use isobar_server::daemon::store_key;
use isobar_server::{
    serve, Client, CoreOptions, ServeOptions, ServePhase, Server, Status, StoreCore,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Busy answers a put may get before it counts as never admitted.
const MAX_BUSY_RETRIES: u32 = 10_000;

fn serve_options(cfg: &Config) -> ServeOptions {
    ServeOptions {
        commit_threshold: cfg.commit_threshold,
        ..ServeOptions::default()
    }
}

fn slice(set: &Dataset, k: usize, len: usize) -> &[u8] {
    &set.bytes[k * len..(k + 1) * len]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Put,
    /// A get of the key the client just put, which the overlay holds
    /// unless that put triggered a commit.
    GetFresh,
    /// A get of a seeded-uniform earlier key, which the committed
    /// generations usually hold.
    GetEarlier,
}

/// One acknowledged request, kept for the replay.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: Kind,
    client: usize,
    step: u32,
    set: usize,
    slice: usize,
    start_ns: u64,
    rtt_s: f64,
}

/// One closed-loop client: its connection, its choices, its log.
struct ClientState {
    idx: usize,
    tenant: String,
    client: Client,
    rng: Rng,
    tracer: Tracer,
    epoch: Instant,
    next_step: u32,
    req: u64,
    /// `(step, dataset, slice)` of every acked put.
    acked: Vec<(u32, usize, usize)>,
    ops: Vec<Op>,
    put_ms: Vec<f64>,
    /// Latencies of earlier-key gets.
    get_ms: Vec<f64>,
    /// Latencies of just-written-key gets.
    fresh_get_ms: Vec<f64>,
    put_bytes: u64,
    get_bytes: u64,
    busy_retries: u64,
    out: Outcome,
}

impl ClientState {
    fn connect(addr: SocketAddr, idx: usize, seed: u64, epoch: Instant) -> Result<Self, String> {
        let client = Client::connect(addr).map_err(|e| format!("client {idx} connect: {e}"))?;
        Ok(ClientState {
            idx,
            tenant: format!("c{idx}"),
            client,
            rng: Rng::new(seed, idx as u64 + 1),
            tracer: Tracer::new(epoch, idx as u32 + 1),
            epoch,
            next_step: 0,
            req: 0,
            acked: Vec::new(),
            ops: Vec::new(),
            put_ms: Vec::new(),
            get_ms: Vec::new(),
            fresh_get_ms: Vec::new(),
            put_bytes: 0,
            get_bytes: 0,
            busy_retries: 0,
            out: Outcome::default(),
        })
    }

    fn next_req(&mut self) -> u64 {
        self.req += 1;
        ((self.idx as u64 + 1) << 40) | self.req
    }

    /// One put of a seeded corpus slice, then one get. Datasets take
    /// turns, so every run stores them in equal shares.
    fn pair(&mut self, corpus: &Corpus, slice_bytes: usize) {
        let d = (self.idx + self.next_step as usize) % corpus.sets.len();
        let set = &corpus.sets[d];
        let k = self.rng.below(set.bytes.len() / slice_bytes);
        let payload = slice(set, k, slice_bytes);
        let step = self.next_step;
        self.next_step += 1;

        let req = self.next_req();
        let mut body = payload.to_vec();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let open = self.tracer.begin("serve.put", req);
        let t0 = Instant::now();
        let mut retries = 0;
        let answer = loop {
            match self
                .client
                .put(&self.tenant, step, set.name, set.width as u8, body)
            {
                Ok(resp) if resp.status == Status::Busy && retries < MAX_BUSY_RETRIES => {
                    retries += 1;
                    std::thread::sleep(Duration::from_millis(1));
                    body = payload.to_vec();
                }
                Ok(resp) => break Ok(resp),
                Err(e) => break Err(e.to_string()),
            }
        };
        let rtt_s = t0.elapsed().as_secs_f64();
        self.tracer.end(open, payload.len() as u64);
        self.busy_retries += u64::from(retries);
        let acked = matches!(&answer, Ok(resp) if resp.status == Status::Ok);
        self.out
            .check(acked, || format!("put {step}/{}: {answer:?}", set.name));
        if acked {
            self.acked.push((step, d, k));
            self.put_ms.push(rtt_s * 1e3);
            self.put_bytes += payload.len() as u64;
            self.ops.push(Op {
                kind: Kind::Put,
                client: self.idx,
                step,
                set: d,
                slice: k,
                start_ns,
                rtt_s,
            });
        }

        let Some(&newest) = self.acked.last() else {
            return;
        };
        let earlier = self.acked.len() - 1;
        let (kind, (step, d, k)) = if !acked || earlier == 0 || self.rng.below(2) == 0 {
            (Kind::GetFresh, newest)
        } else {
            (Kind::GetEarlier, self.acked[self.rng.below(earlier)])
        };
        let set = &corpus.sets[d];
        let expected = slice(set, k, slice_bytes);
        let req = self.next_req();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let open = self.tracer.begin("serve.get", req);
        let t0 = Instant::now();
        let answer = self.client.get(&self.tenant, step, set.name);
        let rtt_s = t0.elapsed().as_secs_f64();
        self.tracer.end(open, expected.len() as u64);
        let ok =
            matches!(&answer, Ok(resp) if resp.status == Status::Ok && resp.payload == expected);
        self.out.check(ok, || {
            format!("get {step}/{} did not return the acked bytes", set.name)
        });
        if ok {
            match kind {
                Kind::GetFresh => self.fresh_get_ms.push(rtt_s * 1e3),
                _ => self.get_ms.push(rtt_s * 1e3),
            }
            self.get_bytes += expected.len() as u64;
            self.ops.push(Op {
                kind,
                client: self.idx,
                step,
                set: d,
                slice: k,
                start_ns,
                rtt_s,
            });
        }
    }
}

/// The clients' logs, merged.
#[derive(Default)]
struct Merged {
    acked: Vec<(usize, u32, usize, usize)>,
    ops: Vec<Op>,
    put_ms: Vec<f64>,
    get_ms: Vec<f64>,
    fresh_get_ms: Vec<f64>,
    put_bytes: u64,
    get_bytes: u64,
    busy_retries: u64,
    spans: Vec<Vec<tracer::Span>>,
}

fn merge(clients: Vec<ClientState>, out: &mut Outcome) -> Merged {
    let mut m = Merged::default();
    for c in clients {
        out.attempted += c.out.attempted;
        out.failed += c.out.failed;
        if let Some(e) = c.out.first_error {
            out.first_error.get_or_insert(e);
        }
        m.acked
            .extend(c.acked.iter().map(|&(step, d, k)| (c.idx, step, d, k)));
        m.ops.extend(c.ops);
        m.put_ms.extend(c.put_ms);
        m.get_ms.extend(c.get_ms);
        m.fresh_get_ms.extend(c.fresh_get_ms);
        m.put_bytes += c.put_bytes;
        m.get_bytes += c.get_bytes;
        m.busy_retries += c.busy_retries;
        m.spans.push(c.tracer.into_spans());
    }
    m.ops.sort_by_key(|op| op.start_ns);
    m
}

fn start(dir: &Path, cfg: &Config) -> Result<Server, String> {
    serve(dir, "127.0.0.1:0", None, serve_options(cfg))
        .map_err(|e| format!("starting serve on {}: {e}", dir.display()))
}

fn stop(server: Server) -> Result<isobar_server::ServeReport, String> {
    server.shutdown();
    server.join().map_err(|e| format!("draining serve: {e}"))
}

/// Reopen the drained directory through the engine and read back a
/// seeded sample of acked keys.
fn verify_drained(
    dir: &Path,
    cfg: &Config,
    corpus: &Corpus,
    acked: &[(usize, u32, usize, usize)],
    out: &mut Outcome,
) -> Result<(), String> {
    let core = StoreCore::open_real(dir, CoreOptions::default())
        .map_err(|e| format!("reopening {}: {e}", dir.display()))?;
    let mut rng = Rng::new(cfg.seed, 0);
    for _ in 0..cfg.verify_sample.min(acked.len()) {
        let (client, step, d, k) = acked[rng.below(acked.len())];
        let set = &corpus.sets[d];
        let key = store_key(&format!("c{client}"), set.name);
        let got = core.get(step, &key);
        out.check(
            matches!(&got, Ok((data, _)) if data == slice(set, k, cfg.slice_bytes)),
            || format!("drained store lost {key} step {step}"),
        );
    }
    Ok(())
}

/// The untraced run: every client loops until the time is up and it
/// has made its share of the pairs [`MIN_SAMPLES`] asks for.
pub fn timed(cfg: &Config, scratch: &Scratch) -> Result<Outcome, String> {
    let mut n = 0;
    let ((corpus, server, dir), setup_s) = timed_setup(
        cfg.setup_reps,
        || {
            n += 1;
            let dir = scratch.child(&format!("serve-{n}"));
            let corpus = Corpus::generate(cfg.seed, cfg.chunk_elements, cfg.chunks);
            let server = start(&dir, cfg)?;
            Ok((corpus, server, dir))
        },
        |(_, server, dir): (Corpus, Server, PathBuf)| {
            stop(server)?;
            std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))
        },
    )?;
    let mut out = Outcome::default();
    out.metrics.set("setup_s", setup_s);
    let addr = server.local_addr();
    let epoch = Instant::now();
    // About half the pairs get an earlier key; three times the sample
    // floor in pairs leaves each op type well above it.
    let min_pairs = (3 * MIN_SAMPLES).div_ceil(cfg.clients);
    let barrier = Barrier::new(cfg.clients + 1);
    let (clients, wall_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|idx| {
                let (corpus, barrier) = (&corpus, &barrier);
                scope.spawn(move || {
                    let state = ClientState::connect(addr, idx, cfg.seed, epoch);
                    barrier.wait();
                    let mut state = state?;
                    let start = Instant::now();
                    let mut pairs = 0;
                    while pairs < min_pairs || start.elapsed().as_secs_f64() < cfg.seconds {
                        state.pair(corpus, cfg.slice_bytes);
                        pairs += 1;
                    }
                    Ok::<_, String>(state)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let clients: Vec<Result<ClientState, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client panicked".to_string()))
            })
            .collect();
        (clients, start.elapsed().as_secs_f64())
    });
    let report = stop(server)?;
    let clients = clients.into_iter().collect::<Result<Vec<_>, _>>()?;
    let merged = merge(clients, &mut out);
    let stored = env::dir_bytes(&dir).map_err(|e| format!("sizing {}: {e}", dir.display()))?;
    verify_drained(&dir, cfg, &corpus, &merged.acked, &mut out)?;

    let m = &mut out.metrics;
    // Payload over the client time spent on that op type, per client:
    // the rate a client sees while putting, or while reading back.
    let clients = cfg.clients as f64;
    let put_s = merged.put_ms.iter().sum::<f64>() / 1e3 / clients;
    let get_s = merged.get_ms.iter().sum::<f64>() / 1e3 / clients;
    let earlier_get_bytes = (merged.get_ms.len() * cfg.slice_bytes) as u64;
    m.set("ratio", ratio(merged.put_bytes as f64, stored as f64));
    m.set("write_mbps", merged.put_bytes as f64 / 1e6 / put_s);
    m.set("read_mbps", earlier_get_bytes as f64 / 1e6 / get_s);
    latency_metrics("put", "write_p50_ms", &merged.put_ms, m, &mut out.notes)?;
    latency_metrics(
        "earlier-key get",
        "read_p50_ms",
        &merged.get_ms,
        m,
        &mut out.notes,
    )?;
    // Just-written gets mostly hit the overlay: a second mode, reported
    // apart so neither mode's median sits on the boundary between them.
    let fresh = &merged.fresh_get_ms;
    out.notes.push(format!(
        "just-written-key get latency: n={} p50={:?} ms highest {:?}",
        fresh.len(),
        crate::stats::percentile(fresh, 50.0),
        crate::stats::highest_reportable(fresh)
    ));
    out.notes.push(format!(
        "serve_mbps {:.3} (put+get payload over {wall_s:.2} s wall, {} clients)",
        (merged.put_bytes + merged.get_bytes) as f64 / 1e6 / wall_s,
        cfg.clients
    ));
    out.notes.push(format!(
        "serve report: puts {} gets {} commits {} busy {} lock_wait_share {:.3}",
        report.puts,
        report.gets,
        report.commits,
        report.busy_rejected,
        report.lock_wait_share()
    ));
    Ok(out)
}

/// The traced run: rounds of `round_pairs` pairs per client, traced
/// and untraced in turn, on one daemon; probes between traced rounds;
/// then the daemon's phase report and a one-thread replay of every
/// acked request through `StoreCore`.
pub fn traced(cfg: &Config, scratch: &Scratch) -> Result<Outcome, String> {
    let corpus = Corpus::generate(cfg.seed, cfg.chunk_elements, cfg.chunks);
    let dir = scratch.child("serve");
    let server = start(&dir, cfg)?;
    let addr = server.local_addr();
    let epoch = Instant::now();
    let mut out = Outcome::default();
    let mut t = Tracer::new(epoch, 0);
    let mut tally = LayerTally::default();
    let mut rs = ReplayScratch::default();
    let mut rounds = Rounds::new(cfg.seconds);
    let mut req = 0u64;
    let preference = serve_options(cfg).isobar.preference;

    let barrier = Barrier::new(cfg.clients + 1);
    let (done, traced_now) = (AtomicBool::new(false), AtomicBool::new(false));
    let clients = std::thread::scope(
        |scope| -> Result<Vec<Result<ClientState, String>>, String> {
            let handles: Vec<_> = (0..cfg.clients)
                .map(|idx| {
                    let (corpus, barrier, done, traced_now) =
                        (&corpus, &barrier, &done, &traced_now);
                    scope.spawn(move || {
                        let mut state = ClientState::connect(addr, idx, cfg.seed, epoch);
                        loop {
                            barrier.wait();
                            if done.load(Ordering::SeqCst) {
                                return state;
                            }
                            if let Ok(s) = &mut state {
                                s.tracer.set_on(traced_now.load(Ordering::SeqCst));
                                for _ in 0..cfg.round_pairs {
                                    s.pair(corpus, cfg.slice_bytes);
                                }
                                s.tracer.set_on(false);
                            }
                            barrier.wait();
                        }
                    })
                })
                .collect();
            let mut probe_err = None;
            while let Some((i, traced)) = rounds.next_round().filter(|_| probe_err.is_none()) {
                traced_now.store(traced, Ordering::SeqCst);
                barrier.wait();
                let t0 = Instant::now();
                barrier.wait();
                rounds.record(i, traced, t0.elapsed().as_secs_f64());
                if traced {
                    for set in &corpus.sets {
                        req += 1;
                        let data = slice(set, 0, cfg.slice_bytes);
                        if let Err(e) = crate::layers::probe_chunk(
                            &mut t, req, set.name, data, set.width, preference, &mut tally, &mut rs,
                        ) {
                            probe_err = Some(e);
                        }
                    }
                }
            }
            done.store(true, Ordering::SeqCst);
            barrier.wait();
            let clients = handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client panicked".to_string()))
                })
                .collect();
            probe_err.map_or(Ok(clients), Err)
        },
    )?;
    let report = stop(server)?;
    let clients = clients.into_iter().collect::<Result<Vec<_>, _>>()?;
    let merged = merge(clients, &mut out);
    verify_drained(&dir, cfg, &corpus, &merged.acked, &mut out)?;

    let replay = replay(
        cfg,
        &corpus,
        &merged.ops,
        &scratch.child("replay"),
        &mut t,
        &mut out,
    )?;
    let mut lists = merged.spans;
    lists.insert(0, t.into_spans());
    let path = crate::trace_path(cfg, scratch, Workload::ServeMixed)?;
    let summary = tracer::finish(&lists.concat(), &path)?;
    out.check(tally.probe_mismatches == 0, || {
        "a probe round trip failed".to_string()
    });

    let m = &mut out.metrics;
    let all_rounds = rounds.total() as f64;
    crate::layers::layer_metrics(&summary, &tally, rounds.traced(), m);
    let share = |p: ServePhase| {
        ratio(
            report.phase_nanos[p as usize] as f64,
            report.total_request_nanos as f64,
        )
    };
    m.set("server.lock_wait_share", share(ServePhase::LockWait));
    m.set("server.store_put_share", share(ServePhase::StorePut));
    m.set("server.wal_fsync_share", share(ServePhase::WalFsync));
    m.set("server.commit_share", share(ServePhase::Commit));
    m.set("server.payload_read_share", share(ServePhase::PayloadRead));
    m.set(
        "server.busy_retries_per_put",
        ratio(merged.busy_retries as f64, merged.put_ms.len() as f64),
    );
    m.set("server.commits", ratio(report.commits as f64, all_rounds));
    m.set(
        "server.wire_lock_s",
        ratio(replay.client_rtt_s - replay.replay_s, all_rounds),
    );
    m.set(
        "core.wal_append_p50_ms",
        percentile_or_lower(&replay.wal_ms, 50.0).0,
    );
    m.set(
        "core.wal_append_p99_ms",
        percentile_or_lower(&replay.wal_ms, 99.0).0,
    );
    m.set(
        "core.store_put_busy_s",
        ratio(summary.get("core.store_put").total_s, all_rounds),
    );
    m.set(
        "core.commit_max_ms",
        replay.commit_ms.iter().copied().fold(0.0, f64::max),
    );
    m.set(
        "core.get_committed_p50_ms",
        percentile_or_lower(&replay.committed_get_ms, 50.0).0,
    );
    m.set(
        "core.get_overlay_hit_frac",
        ratio(replay.overlay_hits as f64, replay.gets as f64),
    );
    m.set("trace.overhead_frac", rounds.overhead_frac());
    out.notes.push(format!(
        "replayed {} requests ({} wal appends, {} commits); trace {} spans in {}",
        merged.ops.len(),
        replay.wal_ms.len(),
        replay.commit_ms.len(),
        summary.spans,
        path.display()
    ));
    Ok(out)
}

/// What the one-thread replay measured.
#[derive(Default)]
struct Replay {
    wal_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    committed_get_ms: Vec<f64>,
    overlay_hits: u64,
    gets: u64,
    replay_s: f64,
    client_rtt_s: f64,
}

/// Replay `ops` in start order through a fresh `StoreCore` in `dir`
/// with the daemon's options and put sequence: `store_put`,
/// `wal_append`, `overlay_insert`, and `commit` once over threshold;
/// gets read the overlay first, the committed store second.
fn replay(
    cfg: &Config,
    corpus: &Corpus,
    ops: &[Op],
    dir: &Path,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<Replay, String> {
    let opts = serve_options(cfg);
    let mut core = StoreCore::open_real(
        dir,
        CoreOptions {
            isobar: opts.isobar,
            shards: opts.shards,
            queue_depth: opts.queue_depth,
            commit_threshold: opts.commit_threshold,
            wal: opts.wal,
            open_reader: true,
        },
    )
    .map_err(|e| format!("opening replay core {}: {e}", dir.display()))?;
    t.set_on(true);
    let mut r = Replay::default();
    for (i, op) in ops.iter().enumerate() {
        let set = &corpus.sets[op.set];
        let payload = slice(set, op.slice, cfg.slice_bytes);
        let len = payload.len() as u64;
        let tenant = format!("c{}", op.client);
        let key = store_key(&tenant, DATASETS[op.set]);
        let req = (1 << 48) | i as u64;
        let t0 = Instant::now();
        let open = t.begin("core.op", req);
        match op.kind {
            Kind::Put => {
                let put = t.time("core.store_put", req, len, || {
                    core.store_put(op.step, &key, payload.to_vec(), set.width)
                });
                out.check(put.is_ok(), || format!("replay store_put {key}: {put:?}"));
                let t1 = Instant::now();
                let wal = t.time("core.wal_append", req, len, || {
                    core.wal_append(&tenant, op.step, set.name, set.width as u8, payload)
                });
                r.wal_ms.push(t1.elapsed().as_secs_f64() * 1e3);
                out.check(wal.is_ok(), || format!("replay wal_append {key}: {wal:?}"));
                t.time("core.overlay_insert", req, len, || {
                    core.overlay_insert(op.step, key.clone(), set.width as u8, payload.to_vec())
                });
                if core.over_threshold() {
                    let t2 = Instant::now();
                    let commit = t.time("core.commit", req, 0, || core.commit());
                    r.commit_ms.push(t2.elapsed().as_secs_f64() * 1e3);
                    out.check(commit.is_ok(), || {
                        format!("replay commit: {:?}", commit.err())
                    });
                }
            }
            Kind::GetFresh | Kind::GetEarlier => {
                let t1 = Instant::now();
                let got = t.time("core.get", req, len, || core.get(op.step, &key));
                let get_ms = t1.elapsed().as_secs_f64() * 1e3;
                r.gets += 1;
                match &got {
                    Ok((_, GetSource::Overlay)) => r.overlay_hits += 1,
                    Ok((_, GetSource::Committed)) => r.committed_get_ms.push(get_ms),
                    Err(_) => {}
                }
                out.check(matches!(&got, Ok((data, _)) if data == payload), || {
                    format!("replay get {key} step {}", op.step)
                });
            }
        }
        t.end(open, len);
        r.replay_s += t0.elapsed().as_secs_f64();
        r.client_rtt_s += op.rtt_s;
    }
    t.set_on(false);
    Ok(r)
}
