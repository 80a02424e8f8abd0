//! Mixed-workload soak harness for `isobar serve`.
//!
//! FCBench's observation motivates this: throughput claims for a
//! compression service only hold up under cross-domain concurrent
//! client traffic. [`run_soak`] starts an in-process daemon on an
//! ephemeral port and drives it with N client threads, each doing a
//! put-then-get-and-verify loop under its own tenant. Latencies are
//! collected per request; `Busy` answers are counted and retried with
//! backoff (that is the protocol's backpressure working, not an
//! error); any other surprise is an error that fails the soak.

use isobar_server::retry::{backoff_delay, RetryPolicy};
use isobar_server::{
    serve, ChaosConfig, ChaosStream, Client, RetryClient, ServeOptions, ServeReport, Status,
};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Knobs for one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Put/get iterations per client.
    pub iters: usize,
    /// Payload bytes per put (width-8 elements).
    pub payload_bytes: usize,
    /// Server options for the in-process daemon.
    pub server: ServeOptions,
    /// When set, every client connection is wrapped in a fault-
    /// injecting [`ChaosStream`] (seeded per client and per reconnect
    /// from this config's seed) and driven through a [`RetryClient`] —
    /// the soak then proves bit-exact end-to-end delivery across a
    /// hostile transport.
    pub chaos: Option<ChaosConfig>,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            clients: 32,
            iters: 8,
            payload_bytes: 256 * 1024,
            server: ServeOptions::default(),
            chaos: None,
        }
    }
}

/// The Busy-backoff schedule the plain soak clients use: jittered
/// exponential so a herd of rejected clients does not reconverge on
/// the admission gate in lockstep.
fn soak_policy() -> RetryPolicy {
    RetryPolicy {
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(64),
        max_attempts: 1000,
        deadline: Duration::from_secs(120),
    }
}

/// What a soak run measured.
#[derive(Debug)]
pub struct SoakReport {
    /// Application payload throughput (put + get bytes over wall
    /// time), in MB/s.
    pub mbps: f64,
    /// Total payload bytes moved (puts + verified gets).
    pub total_bytes: usize,
    /// Wall-clock seconds for the whole mixed phase.
    pub wall_secs: f64,
    /// Successful puts across all clients.
    pub puts: u64,
    /// Successful, bit-verified gets across all clients.
    pub gets: u64,
    /// `Busy` answers (each was retried until it succeeded).
    pub busy_retries: u64,
    /// Transport-error reconnects (always zero without chaos).
    pub reconnects: u64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Protocol/data errors observed by clients (must be empty for a
    /// passing soak).
    pub errors: Vec<String>,
    /// The daemon's own accounting after the graceful drain.
    pub server: ServeReport,
}

/// Deterministic pseudo-data with enough byte-column structure that
/// the ISOBAR pipeline exercises its real compress path (a pure
/// counter would be degenerate, pure noise would all go verbatim).
fn payload(client: usize, iter: usize, len: usize) -> Vec<u8> {
    let mut state = (client as u64) << 32 | iter as u64 | 1;
    let mut out = Vec::with_capacity(len);
    let mut value = 0i64;
    while out.len() < len {
        // xorshift noise in the low bytes, a slow ramp in the high
        // bytes — the usual "smooth signal + sensor noise" shape.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        value += (state % 1024) as i64 - 511;
        out.extend_from_slice(&value.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// One client's accounting, merged into the [`SoakReport`].
#[derive(Default)]
struct ClientOutcome {
    latencies: Vec<u64>,
    puts: u64,
    gets: u64,
    busy: u64,
    reconnects: u64,
    errors: Vec<String>,
}

/// Run one client's mixed put/get loop over a plain connection.
fn client_loop(addr: std::net::SocketAddr, client_id: usize, config: &SoakConfig) -> ClientOutcome {
    let mut out = ClientOutcome {
        latencies: Vec::with_capacity(config.iters * 2),
        ..ClientOutcome::default()
    };
    let tenant = format!("tenant{client_id}");
    let policy = soak_policy();
    // Jitter state, seeded per client so schedules decorrelate.
    let mut rng = client_id as u64 ^ 0x5042_AC1E_0000_0001;
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            out.errors.push(format!("connect: {e}"));
            return out;
        }
    };
    for iter in 0..config.iters {
        let name = format!("var{}", iter % 4);
        let step = iter as u32;
        let data = payload(client_id, iter, config.payload_bytes);

        // Put, retrying through Busy with jittered exponential
        // backoff — the protocol's backpressure working, not an error.
        let mut attempt = 0u32;
        loop {
            let start = Instant::now();
            match client.put(&tenant, step, &name, 8, data.clone()) {
                Ok(resp) if resp.status == Status::Ok => {
                    out.latencies.push(start.elapsed().as_nanos() as u64);
                    out.puts += 1;
                    break;
                }
                Ok(resp) if resp.status == Status::Busy => {
                    out.busy += 1;
                    attempt += 1;
                    if attempt > policy.max_attempts {
                        out.errors
                            .push(format!("client {client_id}: put never admitted"));
                        break;
                    }
                    std::thread::sleep(backoff_delay(&policy, attempt, &mut rng));
                }
                Ok(resp) => {
                    out.errors.push(format!(
                        "client {client_id} iter {iter}: put answered {:?}: {}",
                        resp.status,
                        String::from_utf8_lossy(&resp.payload)
                    ));
                    break;
                }
                Err(e) => {
                    out.errors
                        .push(format!("client {client_id} iter {iter}: put failed: {e}"));
                    return out;
                }
            }
        }

        // Get back and verify bit-exactness.
        let start = Instant::now();
        match client.get(&tenant, step, &name) {
            Ok(resp) if resp.status == Status::Ok => {
                out.latencies.push(start.elapsed().as_nanos() as u64);
                if resp.payload != data {
                    out.errors.push(format!(
                        "client {client_id} iter {iter}: get returned {} bytes, wanted {}",
                        resp.payload.len(),
                        data.len()
                    ));
                } else {
                    out.gets += 1;
                }
            }
            Ok(resp) => out.errors.push(format!(
                "client {client_id} iter {iter}: get answered {:?}: {}",
                resp.status,
                String::from_utf8_lossy(&resp.payload)
            )),
            Err(e) => {
                out.errors
                    .push(format!("client {client_id} iter {iter}: get failed: {e}"));
                return out;
            }
        }
    }
    out
}

/// Run one client's mixed put/get loop across a fault-injecting
/// transport, through the retrying client. Every get must still be
/// bit-exact — the chaos layer may reset, stall, and fragment, but it
/// never corrupts, so any data mismatch is a real protocol bug.
fn chaos_client_loop(
    addr: std::net::SocketAddr,
    client_id: usize,
    config: &SoakConfig,
    chaos: ChaosConfig,
) -> ClientOutcome {
    let mut out = ClientOutcome {
        latencies: Vec::with_capacity(config.iters * 2),
        ..ClientOutcome::default()
    };
    let tenant = format!("tenant{client_id}");
    // Every reconnect gets an unrelated fault schedule.
    let mut conn_seq = 0u64;
    let mut client = RetryClient::new(soak_policy(), client_id as u64, move || {
        conn_seq += 1;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let cfg = ChaosConfig {
            seed: chaos.seed ^ ((client_id as u64) << 32) ^ conn_seq,
            ..chaos
        };
        Ok(Client::from_stream(ChaosStream::new(stream, cfg)))
    });
    for iter in 0..config.iters {
        let name = format!("var{}", iter % 4);
        let step = iter as u32;
        let data = payload(client_id, iter, config.payload_bytes);

        let start = Instant::now();
        match client.put(&tenant, step, &name, 8, &data) {
            Ok(resp) if resp.status == Status::Ok => {
                out.latencies.push(start.elapsed().as_nanos() as u64);
                out.puts += 1;
            }
            Ok(resp) => {
                out.errors.push(format!(
                    "client {client_id} iter {iter}: put answered {:?}: {}",
                    resp.status,
                    String::from_utf8_lossy(&resp.payload)
                ));
                continue;
            }
            Err(e) => {
                out.errors
                    .push(format!("client {client_id} iter {iter}: put failed: {e}"));
                break;
            }
        }

        let start = Instant::now();
        match client.get(&tenant, step, &name) {
            Ok(resp) if resp.status == Status::Ok => {
                out.latencies.push(start.elapsed().as_nanos() as u64);
                if resp.payload != data {
                    out.errors.push(format!(
                        "client {client_id} iter {iter}: get returned {} bytes, wanted {}",
                        resp.payload.len(),
                        data.len()
                    ));
                } else {
                    out.gets += 1;
                }
            }
            Ok(resp) => out.errors.push(format!(
                "client {client_id} iter {iter}: get answered {:?}: {}",
                resp.status,
                String::from_utf8_lossy(&resp.payload)
            )),
            Err(e) => {
                out.errors
                    .push(format!("client {client_id} iter {iter}: get failed: {e}"));
                break;
            }
        }
    }
    out.busy = client.stats.busy_retries;
    out.reconnects = client.stats.reconnects;
    out
}

/// Nearest-rank percentile (the `ceil(p·n)`-th smallest sample) in
/// milliseconds. Unlike rounding an interpolated index, nearest rank
/// always answers an observed sample and `p = 1.0` is exactly the
/// maximum.
fn percentile(sorted_nanos: &[u64], p: f64) -> f64 {
    if sorted_nanos.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted_nanos.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted_nanos.len()) - 1;
    sorted_nanos[idx] as f64 / 1e6
}

/// Start a daemon over `dir`, run the mixed workload, drain, and
/// report. The directory is created if missing and left committed (a
/// caller that wants a scratch run should remove it afterwards).
pub fn run_soak(dir: &std::path::Path, config: &SoakConfig) -> Result<SoakReport, String> {
    let server = serve(dir, "127.0.0.1:0", None, config.server.clone())
        .map_err(|e| format!("soak server failed to start: {e}"))?;
    let addr = server.local_addr();

    let start = Instant::now();
    let results: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|client_id| {
                scope.spawn(move || match config.chaos {
                    Some(chaos) => chaos_client_loop(addr, client_id, config, chaos),
                    None => client_loop(addr, client_id, config),
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_secs = start.elapsed().as_secs_f64();

    server.shutdown();
    let report = server
        .join()
        .map_err(|e| format!("soak server failed to drain: {e}"))?;

    let mut latencies = Vec::new();
    let mut puts = 0u64;
    let mut gets = 0u64;
    let mut busy = 0u64;
    let mut reconnects = 0u64;
    let mut errors = Vec::new();
    for out in results {
        latencies.extend(out.latencies);
        puts += out.puts;
        gets += out.gets;
        busy += out.busy;
        reconnects += out.reconnects;
        errors.extend(out.errors);
    }
    latencies.sort_unstable();
    let total_bytes = (puts + gets) as usize * config.payload_bytes;
    Ok(SoakReport {
        mbps: crate::mbps(total_bytes, wall_secs),
        total_bytes,
        wall_secs,
        puts,
        gets,
        busy_retries: busy,
        reconnects,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        errors,
        server: report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        // 10 samples, 1..=10 ms: the textbook nearest-rank answers.
        let nanos: Vec<u64> = (1..=10).map(|ms| ms * 1_000_000).collect();
        assert_eq!(percentile(&nanos, 0.50), 5.0); // ceil(0.5·10) = 5th
        assert_eq!(percentile(&nanos, 0.90), 9.0); // ceil(0.9·10) = 9th
        assert_eq!(percentile(&nanos, 0.99), 10.0); // ceil(9.9) = 10th
        assert_eq!(percentile(&nanos, 1.00), 10.0); // the maximum
                                                    // A single sample answers itself at every percentile.
        assert_eq!(percentile(&[2_000_000], 0.50), 2.0);
        assert_eq!(percentile(&[2_000_000], 0.99), 2.0);
        // Empty input answers zero, no panic.
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn busy_backoff_schedule_doubles_jitters_and_caps() {
        // Satellite of the durability PR: the soak's Busy retry is a
        // jittered exponential, not the old linear ramp. Directed
        // check of the exact schedule shape the clients sleep on.
        let policy = soak_policy();
        let mut rng = 7u64;
        let mut prev_raw = Duration::ZERO;
        for attempt in 1..=12u32 {
            let d = backoff_delay(&policy, attempt, &mut rng);
            let raw = policy
                .base_delay
                .saturating_mul(1 << (attempt - 1).min(20))
                .min(policy.max_delay);
            assert!(
                d >= raw / 2 && d <= raw,
                "attempt {attempt}: {d:?} vs {raw:?}"
            );
            assert!(raw >= prev_raw, "schedule must be monotone pre-cap");
            prev_raw = raw;
        }
        // By attempt 6 (2ms · 2^5 = 64ms) the cap is in charge: a
        // stuck client polls steadily instead of sleeping forever.
        assert_eq!(prev_raw, policy.max_delay);
    }

    #[test]
    fn chaos_soak_survives_and_verifies_bit_exact() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("isobar-chaos-soak-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = SoakConfig {
            clients: 4,
            iters: 3,
            payload_bytes: 16 * 1024,
            server: ServeOptions {
                shards: 2,
                ..Default::default()
            },
            chaos: Some(ChaosConfig::standard(0x000C_4A05)),
        };
        let report = run_soak(&dir, &config).unwrap();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.puts, 12);
        assert_eq!(report.gets, 12, "every get verified bit-exact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn small_soak_is_clean() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("isobar-soak-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = SoakConfig {
            clients: 4,
            iters: 2,
            payload_bytes: 16 * 1024,
            server: ServeOptions {
                shards: 2,
                ..Default::default()
            },
            chaos: None,
        };
        let report = run_soak(&dir, &config).unwrap();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.puts, 8);
        assert_eq!(report.gets, 8);
        assert_eq!(report.server.protocol_errors, 0);
        assert!(report.server.commits >= 1, "drain commits");
        assert!(report.mbps > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
