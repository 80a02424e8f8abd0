//! The `isobar serve` daemon: a blocking, thread-per-connection TCP
//! server in front of a [`ShardedStoreWriter`]/[`StoreReader`] pair.
//!
//! # Architecture
//!
//! One accept thread hands each connection to its own handler thread
//! (the workspace is std-only: no async runtime). Puts and commits
//! funnel through one mutex-guarded `StoreState`: a put goes to the
//! sharded writer, the write-ahead journal (fsync before the ack), and
//! an in-memory overlay so gets are read-your-writes before the next
//! commit. When the overlay crosses the commit threshold the daemon
//! rolls a generation: the writer's two-phase manifest commit runs,
//! the reader reopens, the overlay drains.
//!
//! Gets, stats and ls never take that mutex: they clone an `Arc` out of
//! the engine's [`StoreView`] (committed [`StoreReader`] plus overlay)
//! under its read lock, then decode, format and answer with no lock
//! held, so a get's `lock_wait` is that read lock alone (docs/SERVE.md,
//! "Which requests take the store lock").
//!
//! # Backpressure
//!
//! Admission control is byte-denominated and happens *between* a
//! request's header and its payload: if accepting the payload would
//! push pending bytes past `max_inflight_bytes`, the daemon discards
//! the payload in bounded chunks (keeping the stream frame-aligned)
//! and answers [`Status::Busy`]. Nothing queues unboundedly — the
//! client is told to back off, exactly like the bounded `sync_channel`
//! discipline inside the sharded writer itself.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] flips a flag and pokes the listeners so
//! blocked accepts return. Handler threads notice the flag at their
//! next frame boundary — an in-flight request is always answered
//! before its connection drains. [`Server::join`] then runs the final
//! two-phase store commit, so SIGTERM never tears a manifest: the
//! store on disk is the last committed generation plus one clean
//! final one.

use crate::core::{read_view, write_view, CoreOptions, Found, StoreCore, StoreView};
use crate::obs::{self, ObsState, RequestObs, RequestRecord, ServePhase, SlowLog};
use crate::protocol::{
    discard_exact, parse_request_header, write_response, Opcode, RequestHeader, Status,
    MAX_NAME_LEN, MAX_TENANT_LEN, REQUEST_HEADER_LEN, TENANT_SEPARATOR,
};
use isobar::telemetry::Counter;
use isobar::trace::{TraceTag, NO_CHUNK};
use isobar::{IsobarOptions, Recorder, TelemetrySnapshot};
use isobar_store::{RealFs, StoreError};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`serve`]. Defaults suit a local soak test; see
/// `docs/SERVE.md` for guidance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Shards (codec/I/O thread pairs) per store generation.
    pub shards: u16,
    /// Bounded queue depth between the daemon and each shard.
    pub queue_depth: usize,
    /// Largest accepted `put` payload, in bytes.
    pub max_payload: u64,
    /// Admission limit: total uncommitted payload bytes (overlay plus
    /// reservations) past which puts get [`Status::Busy`].
    pub max_inflight_bytes: u64,
    /// Overlay size that triggers a generation commit.
    pub commit_threshold: u64,
    /// Connections beyond this are answered [`Status::Busy`] at accept.
    pub max_connections: usize,
    /// Requests whose wall time reaches this many milliseconds are
    /// counted slow, logged to `slow.jsonl` (when the flight recorder
    /// is on), and trigger a rate-limited flight dump. `None` disables
    /// slow accounting.
    pub slow_ms: Option<u64>,
    /// Directory for flight-recorder output (Chrome trace dumps and
    /// the slow-request log). Setting this also activates trace
    /// recording for the daemon's lifetime.
    pub flight_recorder: Option<PathBuf>,
    /// Serve a `/debug/stats` JSON snapshot on the metrics listener.
    pub debug_endpoint: bool,
    /// Journal every put to a per-tenant write-ahead log and fsync it
    /// before acking, and replay leftover journals on startup. This is
    /// the "acked means durable" contract; turning it off restores the
    /// pre-WAL behavior where a crash between generation commits loses
    /// acked-but-uncommitted puts.
    pub wal: bool,
    /// Disconnect a connection that sits idle (no new frame started)
    /// this long, so parked sockets cannot pin handler threads
    /// forever. `None` waits indefinitely.
    pub idle_timeout: Option<Duration>,
    /// Ceiling on one frame's total read time (header, identifier
    /// fields, and payload combined). A client that trickles bytes
    /// slower than this — a slowloris — is disconnected rather than
    /// allowed to hold a worker mid-frame.
    pub frame_deadline: Duration,
    /// Compression options for stored variables.
    pub isobar: IsobarOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            shards: 4,
            queue_depth: 2,
            max_payload: 64 << 20,
            max_inflight_bytes: 256 << 20,
            commit_threshold: 64 << 20,
            max_connections: 256,
            slow_ms: None,
            flight_recorder: None,
            debug_endpoint: false,
            wal: true,
            idle_timeout: Some(Duration::from_secs(300)),
            frame_deadline: Duration::from_secs(30),
            isobar: IsobarOptions::default(),
        }
    }
}

/// Largest unread payload the daemon will drain to keep a connection
/// frame-aligned after a malformed-field rejection. Anything larger is
/// answered and then disconnected — burning a worker on megabytes of
/// payload from a client that cannot even frame its identifiers is a
/// denial-of-service grant, not a courtesy. (Busy rejections always
/// drain: those clients are healthy and will retry on the connection.)
pub const MAX_DRAIN_BYTES: u64 = 1 << 20;

/// Why the daemon could not start or finish.
#[derive(Debug)]
pub enum ServeError {
    /// A socket operation failed.
    Io(io::Error),
    /// The store failed (open, put pipeline, or commit).
    Store(StoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve transport error: {e}"),
            ServeError::Store(e) => write!(f, "serve store error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// What a completed serve run did, returned by [`Server::join`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests with a well-formed header that were dispatched.
    pub requests: u64,
    /// Successful puts.
    pub puts: u64,
    /// Successful gets.
    pub gets: u64,
    /// Requests rejected by admission control (connection or byte
    /// budget).
    pub busy_rejected: u64,
    /// Malformed frames rejected with [`Status::BadRequest`].
    pub protocol_errors: u64,
    /// Lookups that answered [`Status::NotFound`].
    pub not_found: u64,
    /// Store generations committed (threshold rolls plus the final
    /// shutdown commit).
    pub commits: u64,
    /// Generation number of the last commit, if any put was committed.
    pub generation: Option<u64>,
    /// Write-ahead journal records replayed into the overlay when the
    /// daemon started (acked puts recovered from a previous crash).
    pub wal_replayed: u64,
    /// Requests past the `slow_ms` threshold.
    pub slow_requests: u64,
    /// Flight-recorder trace dumps written.
    pub flight_dumps: u64,
    /// Cumulative request wall time, nanoseconds.
    pub total_request_nanos: u64,
    /// Cumulative nanoseconds attributed to each phase, indexed by
    /// [`ServePhase`]` as usize`.
    pub phase_nanos: [u64; ServePhase::COUNT],
    /// Merged telemetry from every request and commit.
    pub telemetry: TelemetrySnapshot,
}

impl ServeReport {
    /// Cumulative nanoseconds spent blocked on the store mutex (puts)
    /// or the view lock (every request) — the numerator of the
    /// lock-convoy share.
    pub fn lock_wait_nanos(&self) -> u64 {
        self.phase_nanos[ServePhase::LockWait as usize]
    }

    /// Fraction of all request wall time spent blocked on a lock (0
    /// when nothing was served).
    pub fn lock_wait_share(&self) -> f64 {
        if self.total_request_nanos == 0 {
            return 0.0;
        }
        self.lock_wait_nanos() as f64 / self.total_request_nanos as f64
    }
}

/// Build the store key for a `(tenant, name)` pair. Tenants are
/// namespaces by key prefixing; the separator byte is rejected inside
/// either field by the protocol decoder, so tenants cannot collide.
pub fn store_key(tenant: &str, name: &str) -> String {
    if tenant.is_empty() {
        name.to_string()
    } else {
        let mut key = String::with_capacity(tenant.len() + 1 + name.len());
        key.push_str(tenant);
        key.push(TENANT_SEPARATOR as char);
        key.push_str(name);
        key
    }
}

/// Split a store key back into `(tenant, name)`.
fn split_key(key: &str) -> (&str, &str) {
    match key.find(TENANT_SEPARATOR as char) {
        Some(i) => (&key[..i], &key[i + 1..]),
        None => ("", key),
    }
}

/// Everything store-shaped, behind one mutex. The engine itself
/// (writer, reader, overlay, journal) lives in [`StoreCore`]; this
/// adds the daemon-only admission and poison state.
struct StoreState {
    core: StoreCore<RealFs>,
    /// Bytes reserved by admitted puts whose payloads are still being
    /// read off their sockets.
    reserved_bytes: u64,
    /// A failed commit poisons the store: every later mutation is
    /// answered `ServerError` with this message instead of risking a
    /// torn manifest.
    failed: Option<String>,
}

struct Shared {
    opts: ServeOptions,
    /// Journal records replayed at startup, for [`ServeReport`].
    wal_replayed: u64,
    shutdown: AtomicBool,
    store: Mutex<StoreState>,
    /// What gets, stats and ls read instead of locking `store`.
    view: Arc<RwLock<StoreView>>,
    /// The counter registry: every count, the merged telemetry, and
    /// the request histograms (see [`ObsState`]).
    obs: Mutex<ObsState>,
    slow_log: SlowLog,
}

impl Shared {
    fn lock_obs(&self) -> MutexGuard<'_, ObsState> {
        self.obs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fold one completed request into the registry under one lock: its
    /// counts and recorder, the per-op and per-tenant histograms, phase
    /// totals, the recent-request ring, slow accounting — then, rate
    /// limited, a slow-triggered flight dump.
    fn finish_request(&self, obs: RequestObs, total_nanos: u64, recorder: &mut Recorder) {
        let snapshot = recorder.snapshot();
        recorder.reset();
        let record = RequestRecord {
            op: obs.op,
            tenant: obs.tenant,
            status: obs.status,
            total_nanos,
            phase_nanos: obs.phase_nanos,
        };
        let slow_nanos = self.opts.slow_ms.map(|ms| ms.saturating_mul(1_000_000));
        let dumps_enabled = self.opts.flight_recorder.is_some();
        let (slow, dump_due) = {
            let mut registry = self.lock_obs();
            registry.counts.add(&obs.counts);
            registry.telemetry.merge(&snapshot);
            registry.record_request(record.clone(), slow_nanos, dumps_enabled)
        };
        if slow {
            if let Some(dir) = &self.opts.flight_recorder {
                self.slow_log.append(dir, &record);
            }
        }
        if dump_due {
            // The dump runs on this handler thread so the offending
            // request's own spans are in the file.
            self.dump_flight("slow");
        }
    }

    /// Write a flight-recorder Chrome trace dump, if a dump directory
    /// is configured. Returns the file written.
    fn dump_flight(&self, reason: &str) -> Option<PathBuf> {
        let dir = self.opts.flight_recorder.as_ref()?;
        match obs::dump_flight_trace(dir, reason) {
            Ok(path) => {
                self.lock_obs().counts.flight_dumps += 1;
                Some(path)
            }
            Err(_) => None,
        }
    }

    /// Commit the current generation: two-phase writer close, journal
    /// truncation, reader reopen, overlay drain. Caller holds the
    /// store lock.
    fn commit_locked(
        &self,
        state: &mut StoreState,
        recorder: &mut Recorder,
    ) -> Result<(), StoreError> {
        if !state.core.has_pending() {
            return Ok(());
        }
        let _span = isobar::trace::span(TraceTag::ServeCommit, NO_CHUNK);
        let outcome = match state.core.commit() {
            Ok(Some(outcome)) => outcome,
            Ok(None) => return Ok(()),
            Err(e) => {
                state.failed = Some(e.to_string());
                return Err(e);
            }
        };
        if outcome.wal_truncated > 0 {
            recorder.add(Counter::ServeWalTruncations, outcome.wal_truncated);
        }
        let mut registry = self.lock_obs();
        registry.counts.commits += 1;
        registry.telemetry.merge(&outcome.telemetry);
        Ok(())
    }
}

/// A running daemon. Dropping it shuts down and joins all threads.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    accept: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
}

/// A cheap clone for triggering shutdown from another thread (e.g. a
/// signal watcher).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
}

impl ServerHandle {
    /// Stop accepting, drain in-flight requests. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        poke(self.addr);
        if let Some(addr) = self.metrics_addr {
            poke(addr);
        }
    }

    /// Dump the flight recorder now (the SIGUSR1 path). Returns the
    /// Chrome trace file written, or `None` when no `flight_recorder`
    /// directory is configured or the write failed.
    pub fn dump_flight(&self, reason: &str) -> Option<PathBuf> {
        self.shared.dump_flight(reason)
    }
}

/// Unblock a listener stuck in `accept` by connecting to it.
fn poke(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
}

/// Start the daemon on `addr` (use port 0 for an ephemeral port), with
/// an optional Prometheus `/metrics` HTTP listener on `metrics_addr`.
pub fn serve(
    dir: impl AsRef<Path>,
    addr: &str,
    metrics_addr: Option<&str>,
    opts: ServeOptions,
) -> Result<Server, ServeError> {
    let dir = dir.as_ref().to_path_buf();
    // Open the engine: committed view (eagerly, when one exists, so
    // gets work before the first put of this run) plus write-ahead
    // journal replay of anything a previous run acked but never
    // committed.
    let core = StoreCore::open_real(
        &dir,
        CoreOptions {
            isobar: opts.isobar,
            shards: opts.shards,
            queue_depth: opts.queue_depth,
            commit_threshold: opts.commit_threshold,
            wal: opts.wal,
            open_reader: true,
        },
    )?;
    let wal_replayed = core.replay.records;
    let view = core.view();
    let initial_telemetry = {
        let mut recorder = Recorder::new();
        if wal_replayed > 0 {
            recorder.add(Counter::ServeWalReplayed, wal_replayed);
        }
        recorder.snapshot()
    };
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let metrics_listener = match metrics_addr {
        Some(addr) => Some(TcpListener::bind(addr)?),
        None => None,
    };
    let metrics_local = match &metrics_listener {
        Some(l) => Some(l.local_addr()?),
        None => None,
    };
    if let Some(flight_dir) = &opts.flight_recorder {
        // Keep the trace rings warm for the daemon's lifetime and dump
        // them on panic. Activation is process-global, matching the
        // CLI's `--trace` behavior.
        isobar::trace::set_active(true);
        obs::install_panic_dump(flight_dir);
    }
    let shared = Arc::new(Shared {
        opts,
        wal_replayed,
        shutdown: AtomicBool::new(false),
        store: Mutex::new(StoreState {
            core,
            reserved_bytes: 0,
            failed: None,
        }),
        view,
        obs: Mutex::new(ObsState {
            telemetry: initial_telemetry,
            ..Default::default()
        }),
        slow_log: SlowLog::default(),
    });

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&shared, listener))
    };
    let metrics_thread = metrics_listener.map(|listener| {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || metrics_loop(&shared, listener))
    });

    Ok(Server {
        shared,
        addr: local_addr,
        metrics_addr: metrics_local,
        accept: Some(accept),
        metrics_thread,
    })
}

impl Server {
    /// Address the request listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Address the `/metrics` listener is bound to, if one was asked
    /// for.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// A cloneable handle for triggering shutdown from elsewhere.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
            addr: self.addr,
            metrics_addr: self.metrics_addr,
        }
    }

    /// Stop accepting, drain in-flight requests. Idempotent;
    /// [`Server::join`] afterwards completes the final commit.
    pub fn shutdown(&self) {
        self.handle().shutdown();
    }

    /// Hold the store mutex until the returned guard drops, as a put
    /// stuck in its journal fsync would.
    #[cfg(test)]
    pub(crate) fn hold_store_lock(&self) -> impl Sized + '_ {
        self.shared.store.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wait for the drain to finish, run the final two-phase store
    /// commit, and report what the run did. Call [`Server::shutdown`]
    /// (or have a signal watcher call it) first — `join` on a live
    /// server blocks until someone does.
    pub fn join(mut self) -> Result<ServeReport, ServeError> {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(metrics) = self.metrics_thread.take() {
            let _ = metrics.join();
        }
        let shared = &self.shared;
        let mut recorder = Recorder::new();
        let (commit_result, generation) = {
            let mut state = shared.store.lock().unwrap_or_else(|e| e.into_inner());
            let result = shared.commit_locked(&mut state, &mut recorder);
            (result, state.core.last_generation)
        };
        let mut registry = shared.lock_obs();
        registry.telemetry.merge(&recorder.snapshot());
        let c = registry.counts;
        let report = ServeReport {
            requests: c.requests,
            puts: c.puts,
            gets: c.gets,
            busy_rejected: c.busy_rejected,
            protocol_errors: c.protocol_errors,
            not_found: c.not_found,
            commits: c.commits,
            generation,
            wal_replayed: shared.wal_replayed,
            slow_requests: c.slow_requests,
            flight_dumps: c.flight_dumps,
            total_request_nanos: registry.total_request_nanos,
            phase_nanos: registry.phase_nanos,
            telemetry: registry.telemetry_snapshot(),
        };
        commit_result?;
        Ok(report)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped server still drains and joins; the final commit is
        // only reachable through join(), so callers that care about
        // the committed generation must use it.
        self.shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(metrics) = self.metrics_thread.take() {
            let _ = metrics.join();
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        handlers.retain(|h| !h.is_finished());
        if handlers.len() >= shared.opts.max_connections {
            shared.lock_obs().counts.busy_rejected += 1;
            let mut stream = stream;
            let _ = write_response(&mut stream, Status::Busy, b"connection limit reached");
            continue;
        }
        shared.lock_obs().counts.connections += 1;
        let shared = Arc::clone(shared);
        // Stamp the hand-off so the gap between accept and the handler
        // thread starting is attributed to the first request's accept
        // phase.
        let accepted = Instant::now();
        handlers.push(std::thread::spawn(move || {
            let accept_nanos = accepted.elapsed().as_nanos() as u64;
            handle_connection(&shared, stream, accept_nanos);
            isobar::trace::flush_thread();
        }));
    }
    for handler in handlers {
        let _ = handler.join();
    }
}

/// What polling for the start of the next frame produced.
enum FirstByte {
    Byte(u8),
    Eof,
    Shutdown,
    Error,
}

/// Set a socket read timeout, logging the failure once per process.
/// Returns `false` when the timeout could not be set — callers must
/// then drop the connection rather than serve it with *no* timeout,
/// which would hand a stalled peer a thread forever.
fn set_read_timeout_checked(stream: &TcpStream, timeout: Duration) -> bool {
    match stream.set_read_timeout(Some(timeout)) {
        Ok(()) => true,
        Err(e) => {
            static LOGGED: Once = Once::new();
            LOGGED.call_once(|| {
                eprintln!(
                    "isobar-serve: set_read_timeout failed ({e}); \
                     closing connections instead of serving without timeouts"
                );
            });
            false
        }
    }
}

/// Wait for the first byte of the next frame with a short poll
/// timeout so the thread notices shutdown while idle. Reading only
/// one byte here means a timeout can never strand a partial read —
/// frame alignment is preserved across polls. A connection that idles
/// past `idle_timeout` is reported as an error so the handler drops
/// it: parked sockets must not pin worker threads indefinitely.
fn poll_first_byte(stream: &mut TcpStream, shared: &Shared) -> FirstByte {
    if !set_read_timeout_checked(stream, Duration::from_millis(100)) {
        return FirstByte::Error;
    }
    let idle_deadline = shared.opts.idle_timeout.map(|t| Instant::now() + t);
    let mut byte = [0u8; 1];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return FirstByte::Shutdown;
        }
        if let Some(deadline) = idle_deadline {
            if Instant::now() >= deadline {
                return FirstByte::Error;
            }
        }
        match stream.read(&mut byte) {
            Ok(0) => return FirstByte::Eof,
            Ok(_) => return FirstByte::Byte(byte[0]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue
            }
            Err(_) => return FirstByte::Error,
        }
    }
}

/// The connection for the duration of one frame, with the per-frame
/// read deadline enforced on every read: the socket timeout is
/// re-armed to the remaining budget before each read, so a client
/// trickling one byte per timeout window (a slowloris) is bounded by
/// `frame_deadline` in total, not per read. Writes pass through.
struct FrameStream<'a> {
    stream: &'a mut TcpStream,
    deadline: Instant,
}

impl Read for FrameStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let now = Instant::now();
        if now >= self.deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "frame deadline exceeded",
            ));
        }
        let remaining = (self.deadline - now).max(Duration::from_millis(1));
        if !set_read_timeout_checked(self.stream, remaining) {
            return Err(io::Error::other("cannot arm frame deadline"));
        }
        match self.stream.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "frame deadline exceeded",
            )),
            other => other,
        }
    }
}

impl Write for FrameStream<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

fn handle_connection(shared: &Shared, mut stream: TcpStream, accept_nanos: u64) {
    let _ = stream.set_nodelay(true);
    let mut recorder = Recorder::new();
    let mut accept_pending = accept_nanos;
    loop {
        let first = match poll_first_byte(&mut stream, shared) {
            FirstByte::Byte(b) => b,
            FirstByte::Eof | FirstByte::Error => break,
            FirstByte::Shutdown => {
                let _ = write_response(&mut stream, Status::ShuttingDown, b"daemon draining");
                break;
            }
        };
        // The request clock starts at its first byte; client think
        // time between frames is not request latency.
        let mut obs = RequestObs::new();
        obs.add(ServePhase::Accept, std::mem::take(&mut accept_pending));
        let header_span = isobar::trace::span(TraceTag::ServeHeaderParse, NO_CHUNK);
        // The frame has started: every read from here on runs under
        // the per-frame deadline, so a stalled or trickling client
        // cannot pin the thread past `frame_deadline` in total.
        let mut frame = FrameStream {
            stream: &mut stream,
            deadline: obs.start() + shared.opts.frame_deadline,
        };
        let mut header_buf = [0u8; REQUEST_HEADER_LEN];
        header_buf[0] = first;
        if frame.read_exact(&mut header_buf[1..]).is_err() {
            shared.lock_obs().counts.protocol_errors += 1;
            break;
        }
        let header = match parse_request_header(&header_buf, shared.opts.max_payload) {
            Ok(header) => header,
            Err(e) => {
                drop(header_span);
                shared.lock_obs().counts.protocol_errors += 1;
                let _ = write_response(&mut frame, Status::BadRequest, e.to_string().as_bytes());
                // The stream may be mid-frame; alignment is gone.
                break;
            }
        };
        drop(header_span);
        obs.op = obs::op_index(header.opcode);
        // Everything since the first byte — the timeout setup syscall,
        // the header read and decode, and dispatch bookkeeping — is
        // header-parse time (one boundary-clock stretch).
        obs.charge(ServePhase::HeaderParse);
        let keep = {
            let _span = isobar::trace::span(TraceTag::ServeRequest, NO_CHUNK);
            handle_request(shared, &mut frame, &header, &mut recorder, &mut obs)
        };
        let total_nanos = obs.finish();
        shared.finish_request(obs, total_nanos, &mut recorder);
        if !keep {
            break;
        }
    }
}

/// Acquire the store mutex with the wait attributed to the request's
/// lock-wait phase (the convoy scoreboard). Only puts take it.
fn lock_store<'a>(shared: &'a Shared, obs: &mut RequestObs) -> MutexGuard<'a, StoreState> {
    obs.time(ServePhase::LockWait, || {
        shared.store.lock().unwrap_or_else(|e| e.into_inner())
    })
}

/// Read-lock the view with the wait attributed to lock-wait.
fn lock_view<'a>(shared: &'a Shared, obs: &mut RequestObs) -> RwLockReadGuard<'a, StoreView> {
    obs.time(ServePhase::LockWait, || read_view(&shared.view))
}

/// Release a lock with the handoff attributed to lock-wait: under
/// contention an unlock wakes a waiter (a futex syscall), and that cost
/// belongs on the same convoy scoreboard as the waits.
fn unlock<G>(guard: G, obs: &mut RequestObs) {
    obs.time(ServePhase::LockWait, || drop(guard));
}

/// Write the response frame with the time attributed to the
/// write-response phase, stamping the request's final status.
fn respond(stream: &mut FrameStream<'_>, obs: &mut RequestObs, status: Status, body: &[u8]) {
    obs.status = obs::status_name(status);
    obs.time(ServePhase::WriteResponse, || {
        let _ = write_response(stream, status, body);
    });
}

/// Serve one request whose header has been decoded. Returns whether
/// the connection is still frame-aligned and should be kept open.
fn handle_request(
    shared: &Shared,
    stream: &mut FrameStream<'_>,
    header: &RequestHeader,
    recorder: &mut Recorder,
    obs: &mut RequestObs,
) -> bool {
    // Tenant and name are small (caps enforced by the header parse).
    let fields = obs.time(ServePhase::HeaderParse, || {
        crate::protocol::read_request_fields(&mut *stream, header)
    });
    let (tenant, name) = match fields {
        Ok(fields) => fields,
        Err(crate::protocol::FrameError::Proto(e)) => {
            obs.counts.protocol_errors += 1;
            // The identifier bytes were consumed, so the stream is
            // still frame-aligned for everything but the payload.
            // Drain a small payload to keep the connection; a large
            // one is answered and dropped (bounded drain).
            let message = e.to_string();
            if u64::from(header.payload_len) > MAX_DRAIN_BYTES {
                respond(stream, obs, Status::BadRequest, message.as_bytes());
                return false;
            }
            return reject_unread(
                stream,
                obs,
                header.payload_len,
                Status::BadRequest,
                &message,
            );
        }
        Err(crate::protocol::FrameError::Io(_)) => return false,
    };
    obs.tenant = tenant.clone();
    match header.opcode {
        Opcode::Put => handle_put(shared, stream, header, &tenant, &name, recorder, obs),
        Opcode::Get => handle_get(shared, stream, header.step, &tenant, &name, recorder, obs),
        Opcode::Stat => handle_stat(shared, stream, header.step, &tenant, &name, obs),
        Opcode::Ls => handle_ls(shared, stream, &tenant, obs),
    }
}

/// Reject a request whose payload is still unread: drain it in bounded
/// chunks to stay frame-aligned (under the frame deadline), then
/// answer `status`. A Busy or ShuttingDown put always drains —
/// well-behaved clients retry on the same connection; the
/// malformed-field path drains only up to [`MAX_DRAIN_BYTES`].
fn reject_unread(
    stream: &mut FrameStream<'_>,
    obs: &mut RequestObs,
    payload_len: u32,
    status: Status,
    message: &str,
) -> bool {
    let drained = obs.time(ServePhase::PayloadRead, || {
        discard_exact(stream, u64::from(payload_len))
    });
    if drained.is_err() {
        obs.status = obs::status_name(status);
        return false;
    }
    respond(stream, obs, status, message.as_bytes());
    true
}

fn handle_put(
    shared: &Shared,
    stream: &mut FrameStream<'_>,
    header: &RequestHeader,
    tenant: &str,
    name: &str,
    recorder: &mut Recorder,
    obs: &mut RequestObs,
) -> bool {
    let len = u64::from(header.payload_len);
    if shared.shutdown.load(Ordering::SeqCst) {
        return reject_unread(
            stream,
            obs,
            header.payload_len,
            Status::ShuttingDown,
            "daemon draining",
        );
    }
    // Admission: reserve the bytes before reading them, or refuse.
    {
        let mut state = lock_store(shared, obs);
        let verdict = obs.time(ServePhase::Admission, || {
            if let Some(msg) = &state.failed {
                return Some((Status::ServerError, msg.clone()));
            }
            if state.core.pending_bytes() + state.reserved_bytes + len
                > shared.opts.max_inflight_bytes
            {
                return Some((
                    Status::Busy,
                    "in-flight byte budget full, retry later".to_string(),
                ));
            }
            state.reserved_bytes += len;
            None
        });
        unlock(state, obs);
        if let Some((status, message)) = verdict {
            if status == Status::Busy {
                obs.counts.busy_rejected += 1;
            }
            return reject_unread(stream, obs, header.payload_len, status, &message);
        }
    }
    let unreserve = |shared: &Shared| {
        let mut state = shared.store.lock().unwrap_or_else(|e| e.into_inner());
        state.reserved_bytes = state.reserved_bytes.saturating_sub(len);
    };
    let payload = obs.time(ServePhase::PayloadRead, || {
        read_payload(&mut *stream, header.payload_len as usize)
    });
    let payload = match payload {
        Ok(payload) => payload,
        Err(_) => {
            unreserve(shared);
            return false;
        }
    };
    let mut state = lock_store(shared, obs);
    state.reserved_bytes = state.reserved_bytes.saturating_sub(len);
    let result = put_locked(
        shared, &mut state, header, tenant, name, payload, recorder, obs,
    );
    unlock(state, obs);
    match result {
        Ok(()) => {
            obs.counts.puts += 1;
            recorder.add(Counter::ServePutBytes, len);
            respond(stream, obs, Status::Ok, b"");
            true
        }
        Err(e) => {
            respond(stream, obs, Status::ServerError, e.to_string().as_bytes());
            true
        }
    }
}

/// Read a put payload straight into the buffer the overlay will share
/// with gets. Admission has already reserved the whole length.
fn read_payload(r: &mut impl Read, len: usize) -> io::Result<Arc<[u8]>> {
    let mut payload: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
    let buf = Arc::get_mut(&mut payload).expect("freshly allocated");
    r.read_exact(buf)?;
    Ok(payload)
}

/// The store side of a put: lazy writer creation, the sharded put
/// itself, the journal fsync (the ack barrier), the overlay insert,
/// and a threshold commit. Caller holds the store lock. The journal
/// append runs *after* the writer put so a put the daemon is about to
/// reject with `ServerError` is never resurrected by replay.
#[allow(clippy::too_many_arguments)]
fn put_locked(
    shared: &Shared,
    state: &mut StoreState,
    header: &RequestHeader,
    tenant: &str,
    name: &str,
    payload: Arc<[u8]>,
    recorder: &mut Recorder,
    obs: &mut RequestObs,
) -> Result<(), StoreError> {
    let key = store_key(tenant, name);
    obs.time(ServePhase::StorePut, || {
        state.core.store_put(
            header.step,
            &key,
            payload.to_vec(),
            usize::from(header.width),
        )
    })?;
    let wal_bytes = obs.time(ServePhase::WalFsync, || {
        state
            .core
            .wal_append(tenant, header.step, name, header.width, &payload)
    })?;
    if wal_bytes > 0 {
        recorder.incr(Counter::ServeWalAppends);
        recorder.add(Counter::ServeWalBytes, wal_bytes);
    }
    // `StoreCore::overlay_insert`, with the lock wait charged here.
    let mut view = obs.time(ServePhase::LockWait, || write_view(&shared.view));
    obs.time(ServePhase::Overlay, || {
        view.insert(header.step, key, header.width, payload);
    });
    unlock(view, obs);
    if state.core.over_threshold() {
        // commit_locked emits its own ServeCommit span; attribute the
        // wall time without opening a duplicate.
        obs.time_unspanned(ServePhase::Commit, || shared.commit_locked(state, recorder))?;
    }
    Ok(())
}

fn handle_get(
    shared: &Shared,
    stream: &mut FrameStream<'_>,
    step: u32,
    tenant: &str,
    name: &str,
    recorder: &mut Recorder,
    obs: &mut RequestObs,
) -> bool {
    let key = store_key(tenant, name);
    let view = lock_view(shared, obs);
    let found = obs.time(ServePhase::Overlay, || view.find(step, &key));
    unlock(view, obs);
    let result = match &found {
        Some(Found::Overlay(entry)) => Ok(Cow::Borrowed(&entry.data[..])),
        Some(Found::Committed(reader)) => obs
            .time(ServePhase::StoreGet, || reader.get(step, &key))
            .map(Cow::Owned),
        None => Err(StoreError::NotFound { step, name: key }),
    };
    if let Ok(data) = &result {
        obs.counts.gets += 1;
        recorder.add(Counter::ServeGetBytes, data.len() as u64);
    }
    respond_lookup(stream, obs, step, name, result);
    true
}

fn handle_stat(
    shared: &Shared,
    stream: &mut FrameStream<'_>,
    step: u32,
    tenant: &str,
    name: &str,
    obs: &mut RequestObs,
) -> bool {
    let key = store_key(tenant, name);
    let view = lock_view(shared, obs);
    let found = obs.time(ServePhase::Overlay, || view.find(step, &key));
    unlock(view, obs);
    let result = match found {
        Some(Found::Overlay(entry)) => Ok(format!(
            "name={name} step={step} raw_len={} width={} committed=false\n",
            entry.data.len(),
            entry.width
        )),
        Some(Found::Committed(reader)) => obs.time(ServePhase::StoreGet, || {
            reader.entry(step, &key).map(|entry| {
                format!(
                    "name={name} step={step} raw_len={} container_len={} width={} committed=true\n",
                    entry.raw_len, entry.container_len, entry.width
                )
            })
        }),
        None => Err(StoreError::NotFound { step, name: key }),
    };
    respond_lookup(stream, obs, step, name, result);
    true
}

/// Answer a get or stat with its body, `NotFound` (counted), or the
/// store error.
fn respond_lookup(
    stream: &mut FrameStream<'_>,
    obs: &mut RequestObs,
    step: u32,
    name: &str,
    result: Result<impl AsRef<[u8]>, StoreError>,
) {
    match result {
        Ok(body) => respond(stream, obs, Status::Ok, body.as_ref()),
        Err(StoreError::NotFound { .. }) => {
            obs.counts.not_found += 1;
            let message = format!("no variable '{name}' at step {step}");
            respond(stream, obs, Status::NotFound, message.as_bytes());
        }
        Err(e) => respond(stream, obs, Status::ServerError, e.to_string().as_bytes()),
    }
}

fn handle_ls(
    shared: &Shared,
    stream: &mut FrameStream<'_>,
    tenant: &str,
    obs: &mut RequestObs,
) -> bool {
    let view = lock_view(shared, obs);
    let (reader, overlay_rows) = obs.time(ServePhase::Overlay, || {
        let rows: Vec<((u32, String), u64)> = view
            .overlay
            .iter()
            .filter_map(|((step, key), entry)| {
                let (entry_tenant, name) = split_key(key);
                (entry_tenant == tenant)
                    .then(|| ((*step, name.to_string()), entry.data.len() as u64))
            })
            .collect();
        (view.reader.clone(), rows)
    });
    unlock(view, obs);
    // (step, name) -> raw_len; overlay entries shadow committed ones.
    let rows = obs.time(ServePhase::StoreGet, || {
        let mut rows: BTreeMap<(u32, String), u64> = BTreeMap::new();
        if let Some(reader) = &reader {
            for entry in reader.live_entries() {
                let (entry_tenant, name) = split_key(&entry.name);
                if entry_tenant == tenant {
                    rows.insert((entry.step, name.to_string()), entry.raw_len);
                }
            }
        }
        rows.extend(overlay_rows);
        rows
    });
    let mut body = String::new();
    for ((step, name), raw_len) in rows {
        body.push_str(&format!("{step}\t{name}\t{raw_len}\n"));
    }
    respond(stream, obs, Status::Ok, body.as_bytes());
    true
}

/// Minimal HTTP/1.0 responder for `GET /metrics`: renders the shared
/// telemetry snapshot in Prometheus text exposition. Requests are
/// bounded (4 KiB, 2 s) and handled serially — this is an
/// observability side-channel, not a data path.
fn metrics_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        if !set_read_timeout_checked(&stream, Duration::from_secs(2)) {
            // No timeout means an idle scraper could pin this (serial)
            // loop forever; dropping the connection is the safe
            // fallback.
            continue;
        }
        let mut request = [0u8; 4096];
        let mut filled = 0;
        // Read until the header terminator or the cap; anything longer
        // is ignored.
        while filled < request.len() {
            match stream.read(&mut request[filled..]) {
                Ok(0) => break,
                Ok(n) => {
                    filled += n;
                    if request[..filled].windows(4).any(|w| w == b"\r\n\r\n") {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        let line = std::str::from_utf8(&request[..filled])
            .unwrap_or("")
            .lines()
            .next()
            .unwrap_or("");
        let path = line.split_whitespace().nth(1).unwrap_or("");
        let (status, content_type, body) = if line.starts_with("GET ") && path == "/metrics" {
            let registry = shared.lock_obs();
            let mut body = registry.telemetry_snapshot().to_prometheus();
            registry.render_prometheus(&mut body);
            (
                "200 OK",
                "Content-Type: text/plain; version=0.0.4\r\n",
                body,
            )
        } else if line.starts_with("GET ") && path == "/debug/stats" && shared.opts.debug_endpoint {
            let body = debug_stats_json(shared);
            ("200 OK", "Content-Type: application/json\r\n", body)
        } else {
            ("404 Not Found", "", String::new())
        };
        let _ = write!(
            stream,
            "HTTP/1.0 {status}\r\n{content_type}Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let _ = stream.flush();
    }
}

/// Render the `/debug/stats` JSON snapshot: daemon-level gauges (the
/// overlay's from the view, the rest from the store lock, each sampled
/// and released before the obs render) spliced together with the
/// observability state's totals, histograms, and recent-request ring.
fn debug_stats_json(shared: &Shared) -> String {
    let (overlay_entries, overlay_bytes) = {
        let view = read_view(&shared.view);
        (view.overlay.len() as u64, view.overlay_bytes)
    };
    let (reserved_bytes, last_generation, failed) = {
        let state = shared.store.lock().unwrap_or_else(|e| e.into_inner());
        (
            state.reserved_bytes,
            state.core.last_generation,
            state.failed.clone(),
        )
    };
    let registry = shared.lock_obs();
    let c = &registry.counts;
    let mut out = String::with_capacity(4096);
    out.push('{');
    out.push_str(&format!(
        "\"connections\": {}, \"requests\": {}, \"puts\": {}, \"gets\": {}, \
         \"busy_rejected\": {}, \"protocol_errors\": {}, \"not_found\": {}, \"commits\": {}",
        c.connections,
        c.requests,
        c.puts,
        c.gets,
        c.busy_rejected,
        c.protocol_errors,
        c.not_found,
        c.commits,
    ));
    out.push_str(&format!(
        ", \"overlay_entries\": {overlay_entries}, \"overlay_bytes\": {overlay_bytes}, \
         \"reserved_bytes\": {reserved_bytes}, \"in_flight_bytes\": {}, \
         \"commit_backlog_bytes\": {overlay_bytes}, \"commit_threshold\": {}, \
         \"wal_replayed\": {}",
        overlay_bytes.saturating_add(reserved_bytes),
        shared.opts.commit_threshold,
        shared.wal_replayed,
    ));
    match last_generation {
        Some(generation) => out.push_str(&format!(", \"generation\": {generation}")),
        None => out.push_str(", \"generation\": null"),
    }
    match failed {
        Some(msg) => {
            out.push_str(", \"failed\": \"");
            out.push_str(&obs::escape_json(&msg));
            out.push('"');
        }
        None => out.push_str(", \"failed\": null"),
    }
    out.push_str(", ");
    registry.write_debug_json(&mut out);
    out.push('}');
    out
}

const _: () = {
    // The tenant and name caps must fit the store's u16 name-length
    // limit once joined with the separator.
    assert!(MAX_TENANT_LEN + 1 + MAX_NAME_LEN < u16::MAX as usize);
};
