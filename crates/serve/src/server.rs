//! The server runtime: accept thread, bounded queue, worker pool,
//! load shedding, hot-swap, and graceful drain.
//!
//! ## Threading model
//!
//! One accept thread owns the listener. Accepted connections go into a
//! [`std::sync::mpsc::sync_channel`] bounded at `queue_depth`; a fixed
//! pool of worker threads shares the receiver behind a mutex and each
//! worker handles one connection at a time, start to finish. There is
//! no per-connection thread and no unbounded buffer anywhere.
//!
//! ## Backpressure contract
//!
//! Every accepted connection is counted (`borges_serve_accepted_total`)
//! and then meets exactly one of two fates: queued for a worker (which
//! eventually counts it as `borges_serve_served_total`, whatever status
//! it answers — including a peer that vanished before the response) or
//! refused on the spot with `503` + `Retry-After: 1` when the queue is
//! full (`borges_serve_shed_total`, written from the accept thread so a
//! saturated pool cannot delay the refusal). At quiescence,
//! `shed + served == accepted` — CI's smoke job asserts it on a live
//! process.
//!
//! ## Swap semantics
//!
//! The current [`ServingWorld`] sits behind `Mutex<Arc<ServingWorld>>`,
//! locked only long enough to clone or replace the `Arc` (nanoseconds —
//! never across a materialization or remap). A request clones the `Arc`
//! once and uses that one world for everything it does;
//! `/v1/admin/reload` builds the next world off to the side (serving
//! continues from the old one throughout the remap) and installs it
//! with a momentary lock. No request
//! ever observes half a swap, and the mapping LRU — owned by the world —
//! starts cold in the new epoch by construction.
//!
//! ## Shutdown
//!
//! [`Server::stop`] (or `POST /v1/admin/shutdown`) sets the shutdown
//! flag and pokes the listener with a wake connection. The accept loop
//! exits and drops the queue sender; workers drain every connection
//! already queued, then see the channel close and exit. Nothing
//! accepted is abandoned.

use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use borges_core::Borges;
use borges_telemetry::{duration_bucket_label, AccessRecord, MetricsRegistry, MetricsSnapshot};
use parking_lot::Mutex;

use crate::flight::{FlightRecorder, RequestObservation};
use crate::handlers::{self, Route, ServeContext};
use crate::http::{parse_request, Request, Response};
use crate::timeline::{self, TimelineState};
use crate::world::ServingWorld;

/// How a server should run. `Default` gives a loopback ephemeral port,
/// two workers, a queue of 32, an LRU of 16, a 2-second read timeout,
/// a 256-entry flight recorder, and no slow-request threshold.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (must be ≥ 1).
    pub threads: usize,
    /// Bounded accept-queue depth (must be ≥ 1); overflow sheds.
    pub queue_depth: usize,
    /// Mapping-LRU capacity per world; 0 disables caching.
    pub lru_capacity: usize,
    /// Socket read timeout; a silent peer is answered 408 after this.
    pub read_timeout: Duration,
    /// Flight-recorder retention: last N requests and last N events.
    pub recorder_capacity: usize,
    /// Requests at or above this many milliseconds count into
    /// `borges_serve_slow_total` and fire the slow hook.
    pub slow_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            queue_depth: 32,
            lru_capacity: 16,
            read_timeout: Duration::from_secs(2),
            recorder_capacity: 256,
            slow_ms: None,
        }
    }
}

/// An embedder callback receiving one finished [`AccessRecord`].
pub type RecordHook = Box<dyn Fn(&AccessRecord) + Send + Sync>;

/// Embedder callbacks fired from the serving threads. Both receive the
/// finished [`AccessRecord`]; keep them cheap — they run on the worker
/// (or accept) thread that handled the request.
#[derive(Default)]
pub struct ServerHooks {
    /// Called once per finished request with its access record — the
    /// CLI's `--access-log` appender.
    pub access_log: Option<RecordHook>,
    /// Called for requests at or above `slow_ms` — the CLI's narrator
    /// warning path.
    pub slow: Option<RecordHook>,
}

/// Produces the next [`Borges`] for a reload, given the one currently
/// serving (so it can remap with [`Borges::ingest`] against the current
/// snapshot state) and, when `POST /v1/admin/reload` carried a
/// `{"store": "<path>"}` body, the store-artifact path the caller asked
/// to swap to. Injected by the embedder: the serve crate does no IO of
/// its own. A store-path reload that fails must fail *loudly* (`Err`,
/// answered 500, old world keeps serving) — falling back to a bundle
/// recompile silently would leave the operator believing the named
/// artifact is live.
pub type Reloader = Box<dyn Fn(&Borges, Option<&str>) -> Result<Borges, String> + Send + Sync>;

struct Shared {
    world: Mutex<Arc<ServingWorld>>,
    metrics: MetricsRegistry,
    reloader: Option<Reloader>,
    reload_lock: Mutex<()>,
    shutdown: AtomicBool,
    lru_capacity: usize,
    read_timeout: Duration,
    local_addr: SocketAddr,
    workers: usize,
    recorder: FlightRecorder,
    hooks: ServerHooks,
    slow_ms: Option<u64>,
    /// The mounted timeline, when `--timeline` configured one: `?at=`
    /// resolution, the history/diff endpoints, and the epoch LRU.
    timeline: Option<Arc<TimelineState>>,
    /// Connections currently sitting in the accept queue (incremented
    /// on enqueue, decremented on dequeue) — the `queue_depth` an
    /// access record reports is this value at its accept.
    queued: AtomicUsize,
}

impl Shared {
    /// Builds the next world (off to the side) and swaps it in. `store`
    /// is the artifact path from the reload request body, if any.
    fn reload(&self, store: Option<&str>) -> Result<u64, String> {
        let reloader = self
            .reloader
            .as_ref()
            .ok_or_else(|| "no reloader configured".to_string())?;
        // Serialize reloads so concurrent requests cannot race to the
        // same epoch number; readers are never blocked by this lock.
        let _guard = self.reload_lock.lock();
        let current = self.world.lock().clone();
        let next = match reloader(&current.borges, store) {
            Ok(next) => next,
            Err(msg) => {
                self.recorder.record_event("reload_failed", &msg);
                return Err(msg);
            }
        };
        let epoch = current.epoch + 1;
        let world = Arc::new(ServingWorld::new(next, self.lru_capacity, epoch));
        stamp_world_digest(&self.metrics, &world);
        self.recorder.record_event(
            "reload",
            &format!("epoch {epoch} installed, digest {}", world.digest),
        );
        *self.world.lock() = world;
        self.metrics.counter("borges_serve_reloads_total", 1);
        Ok(epoch)
    }

    fn trigger_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.recorder
            .record_event("shutdown", "graceful drain begun");
        // Wake the accept loop; the connection is discarded there
        // before any counting.
        let _ = TcpStream::connect(self.local_addr);
    }

    /// Counts a response's status code. Must run *before* the response
    /// bytes are written: a sequential client's next request can land
    /// on another worker the moment it reads our bytes, and a scrape
    /// there must already see this tick — otherwise counter values
    /// would depend on worker scheduling.
    fn count_status(&self, status: u16) {
        self.metrics.counter_labeled(
            "borges_serve_status_total",
            &[("code", &status.to_string())],
            1,
        );
    }

    /// Finishes one request's bookkeeping: the labeled latency
    /// histogram, the slow path, the flight recorder, and the
    /// access-log hook. Wall-clock durations and schedule-dependent
    /// ids stay confined to these runtime streams — nothing here
    /// touches a response body or a canonical counter.
    #[allow(clippy::too_many_arguments)]
    fn observe_request(
        &self,
        id: &str,
        request: Option<&Request>,
        route_label: &'static str,
        status: u16,
        bytes: u64,
        world: Option<&ServingWorld>,
        obs: RequestObservation,
        queue_depth: u64,
        started: Instant,
    ) {
        let duration_ms = started.elapsed().as_millis() as u64;
        self.metrics.observe_ms_labeled(
            "borges_serve_latency_ms",
            &[("route", route_label)],
            duration_ms,
        );
        let (method, path) = match request {
            Some(req) => (req.method.clone(), canonical_target(req)),
            None => ("-".to_string(), "-".to_string()),
        };
        let (world_digest, world_epoch) = match world {
            Some(world) => (world.digest.clone(), world.epoch),
            None => (String::new(), 0),
        };
        let record = AccessRecord {
            id: id.to_string(),
            method,
            path,
            status,
            bytes,
            world: world_digest,
            epoch: world_epoch,
            lru: obs.lru.label().to_string(),
            queue_depth,
            duration_ms,
            duration_bucket: duration_bucket_label(duration_ms),
        };
        if let Some(threshold) = self.slow_ms {
            if duration_ms >= threshold {
                self.metrics.counter("borges_serve_slow_total", 1);
                if let Some(slow) = &self.hooks.slow {
                    slow(&record);
                }
            }
        }
        self.recorder.record_request(record.clone());
        if let Some(access_log) = &self.hooks.access_log {
            access_log(&record);
        }
    }
}

/// The request's path plus its query re-rendered canonically (keys
/// sorted, `k=v` joined with `&`) — what the access record reports.
fn canonical_target(req: &Request) -> String {
    if req.query.is_empty() {
        return req.path.clone();
    }
    let pairs: Vec<String> = req.query.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{}?{}", req.path, pairs.join("&"))
}

/// A running server: owns the accept thread and worker pool.
///
/// Dropping a `Server` without calling [`Server::stop`] or
/// [`Server::wait`] detaches the threads (they keep serving until the
/// process exits) — embedders that want a clean end must stop or wait.
pub struct Server {
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the pool, and starts serving `borges`.
    ///
    /// Fails on a bad address, a failed bind, or a zero `threads` /
    /// `queue_depth` (zero workers would starve every request; a
    /// zero-depth queue would shed every request).
    pub fn start(
        config: ServerConfig,
        borges: Borges,
        reloader: Option<Reloader>,
    ) -> std::io::Result<Server> {
        Server::start_with(config, borges, reloader, ServerHooks::default())
    }

    /// [`Server::start`] with embedder callbacks: the access-log and
    /// slow-request hooks the CLI wires to `--access-log`/`--slow-ms`.
    pub fn start_with(
        config: ServerConfig,
        borges: Borges,
        reloader: Option<Reloader>,
        hooks: ServerHooks,
    ) -> std::io::Result<Server> {
        Server::start_with_timeline(config, borges, reloader, hooks, None)
    }

    /// [`Server::start_with`] plus a mounted timeline: `?at=` queries,
    /// `/v1/org/{asn}/history`, and `/v1/diff/{t1}/{t2}` answer from
    /// it; without one those paths answer 501.
    pub fn start_with_timeline(
        config: ServerConfig,
        borges: Borges,
        reloader: Option<Reloader>,
        hooks: ServerHooks,
        timeline: Option<Arc<TimelineState>>,
    ) -> std::io::Result<Server> {
        if config.threads == 0 {
            return Err(invalid("threads must be >= 1"));
        }
        if config.queue_depth == 0 {
            return Err(invalid("queue depth must be >= 1"));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        // The boot world keeps the epoch its artifact carries (a
        // timeline world serves its chain epoch, not a hardcoded 0),
        // so serving an epoch directly and via `?at=` agree bytewise.
        let boot_epoch = borges.world_epoch();
        let boot = Arc::new(ServingWorld::new(borges, config.lru_capacity, boot_epoch));
        let metrics = MetricsRegistry::new();
        stamp_world_digest(&metrics, &boot);
        let recorder = FlightRecorder::new(config.recorder_capacity);
        recorder.record_event(
            "world_installed",
            &format!("epoch {boot_epoch} installed, digest {}", boot.digest),
        );
        let shared = Arc::new(Shared {
            world: Mutex::new(boot),
            metrics,
            reloader,
            reload_lock: Mutex::new(()),
            shutdown: AtomicBool::new(false),
            lru_capacity: config.lru_capacity,
            read_timeout: config.read_timeout,
            local_addr,
            workers: config.threads,
            recorder,
            hooks,
            slow_ms: config.slow_ms,
            timeline,
            queued: AtomicUsize::new(0),
        });

        let (tx, rx) = std::sync::mpsc::sync_channel::<(TcpStream, u64)>(config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let worker_handles = (0..config.threads)
            .map(|i| {
                let shared = shared.clone();
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("borges-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx, i))
                    .expect("spawn worker thread")
            })
            .collect();

        let accept_handle = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("borges-serve-accept".to_string())
                .spawn(move || accept_loop(&shared, &listener, tx))
                .expect("spawn accept thread")
        };

        Ok(Server {
            shared,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The server's metrics registry (the `/metrics` source of truth).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// The epoch of the world currently serving.
    pub fn epoch(&self) -> u64 {
        self.shared.world.lock().epoch
    }

    /// Runs the configured reloader and swaps the world, exactly as a
    /// body-less `POST /v1/admin/reload` would.
    pub fn reload(&self) -> Result<u64, String> {
        self.shared.reload(None)
    }

    /// Replaces the serving world directly with `borges` (no reloader
    /// involved); returns the new epoch. The programmatic face of
    /// hot-swap, used by tests that need full control of the next
    /// world.
    pub fn install(&self, borges: Borges) -> u64 {
        let _guard = self.shared.reload_lock.lock();
        let epoch = self.shared.world.lock().epoch + 1;
        let world = Arc::new(ServingWorld::new(borges, self.shared.lru_capacity, epoch));
        stamp_world_digest(&self.shared.metrics, &world);
        self.shared.recorder.record_event(
            "world_installed",
            &format!("epoch {epoch} installed, digest {}", world.digest),
        );
        *self.shared.world.lock() = world;
        epoch
    }

    /// Appends an embedder event to the world-event journal (`GET
    /// /v1/admin/debug/events`) — the CLI records store boots and
    /// degradations here so the journal tells the whole world story.
    pub fn record_event(&self, kind: &str, detail: &str) {
        self.shared.recorder.record_event(kind, detail);
    }

    /// Graceful shutdown: stop accepting, drain everything queued, join
    /// every thread. Returns the final metrics — the closed ledger.
    pub fn stop(mut self) -> MetricsSnapshot {
        self.shared.trigger_shutdown();
        self.join_threads();
        self.shared.metrics.snapshot()
    }

    /// Blocks until the server shuts down by some other hand (`POST
    /// /v1/admin/shutdown`, or a [`Server::stop`]-equivalent trigger
    /// from another thread via [`Server::shutdown_handle`]). Returns
    /// the final metrics.
    pub fn wait(mut self) -> MetricsSnapshot {
        self.join_threads();
        self.shared.metrics.snapshot()
    }

    /// A handle that triggers the same graceful shutdown as
    /// [`Server::stop`], usable from another thread (e.g. a signal
    /// handler).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: self.shared.clone(),
        }
    }

    fn join_threads(&mut self) {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Triggers graceful shutdown from outside the serving threads.
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Begin the graceful drain (idempotent).
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }
}

fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, msg)
}

/// Marks which world is live: one tick on the digest-labeled series
/// per install, so `/metrics` carries every digest that ever served
/// this process and the reload/install history is reconstructible.
fn stamp_world_digest(metrics: &MetricsRegistry, world: &ServingWorld) {
    metrics.counter(
        &format!("borges_serve_world_digest{{digest=\"{}\"}}", world.digest),
        1,
    );
}

/// The optional `/v1/admin/reload` request body.
#[derive(serde::Deserialize)]
struct ReloadBody {
    store: String,
}

/// Parses the reload body: absent/empty means "reload from the
/// embedder's default source", a JSON `{"store": path}` names a store
/// artifact, anything else is a 400.
fn parse_reload_store(body: &[u8]) -> Result<Option<String>, String> {
    if body.is_empty() {
        return Ok(None);
    }
    let text = std::str::from_utf8(body).map_err(|_| "request body is not UTF-8".to_string())?;
    if text.trim().is_empty() {
        return Ok(None);
    }
    let parsed: ReloadBody = serde_json::from_str(text)
        .map_err(|err| format!("request body is not {{\"store\": path}}: {err}"))?;
    Ok(Some(parsed.store))
}

fn accept_loop(shared: &Shared, listener: &TcpListener, tx: SyncSender<(TcpStream, u64)>) {
    // The accept thread numbers the connections it refuses itself
    // (`a-1`, `a-2`, ...) and coalesces consecutive sheds into one
    // `shed_burst` journal event, flushed on the first successful
    // enqueue after the burst (and at loop exit).
    let mut shed_seq: u64 = 0;
    let mut burst: u64 = 0;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wake connection (or a racer behind it): discarded
            // uncounted — it was never accepted into the protocol.
            break;
        }
        shared.metrics.counter("borges_serve_accepted_total", 1);
        let depth = shared.queued.load(Ordering::SeqCst) as u64;
        match tx.try_send((stream, depth)) {
            Ok(()) => {
                shared.queued.fetch_add(1, Ordering::SeqCst);
                flush_shed_burst(shared, &mut burst);
            }
            Err(TrySendError::Full((stream, depth))) => {
                shed_seq += 1;
                burst += 1;
                shed(shared, stream, shed_seq, depth);
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    flush_shed_burst(shared, &mut burst);
    // Dropping the sender closes the queue: workers drain what is
    // already in it, then exit.
    drop(tx);
}

fn flush_shed_burst(shared: &Shared, burst: &mut u64) {
    if *burst > 0 {
        shared.recorder.record_event(
            "shed_burst",
            &format!("{burst} connection(s) shed while the queue was full"),
        );
        *burst = 0;
    }
}

/// Refuses an over-capacity connection with `503` + `Retry-After`,
/// straight from the accept thread — shedding must not itself queue.
fn shed(shared: &Shared, stream: TcpStream, shed_seq: u64, depth: u64) {
    let started = Instant::now();
    shared.metrics.counter("borges_serve_shed_total", 1);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let id = format!("a-{shed_seq}");
    let mut response = Response::error(503, "server overloaded, retry shortly");
    response.retry_after = Some(1);
    response.request_id = Some(id.clone());
    let bytes = response.body.len() as u64;
    shared.count_status(503);
    respond_close(&stream, &response, Duration::from_millis(500));
    // A shed request was never read, so it has no method/path; the
    // record still carries the live world's digest — the world that
    // answered (refused) it.
    let world = shared.world.lock().clone();
    shared.observe_request(
        &id,
        None,
        "shed",
        503,
        bytes,
        Some(&world),
        RequestObservation::new(),
        depth,
        started,
    );
}

/// Writes the response, half-closes, and drains what the peer already
/// sent (bounded) so the close is clean. Closing with unread bytes in
/// the receive buffer makes the kernel send RST, which can destroy the
/// response before the peer reads it — a refused request must still
/// *see* its 431/503. The drain is capped by bytes, the socket read
/// timeout, and the peer's own FIN.
fn respond_close(stream: &TcpStream, response: &Response, drain_timeout: Duration) {
    let _ = response.write_to(&mut &*stream);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(drain_timeout));
    let mut sink = [0u8; 4096];
    let mut budget: usize = 256 * 1024;
    while budget > 0 {
        match (&*stream).read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

fn worker_loop(shared: &Shared, rx: &Arc<Mutex<Receiver<(TcpStream, u64)>>>, worker: usize) {
    // Request ids are monotone per worker (`w0-1`, `w0-2`, ...): no
    // cross-worker coordination on the hot path, and the pair
    // (worker, seq) is unique for the life of the process.
    let mut seq: u64 = 0;
    loop {
        // Hold the receiver lock only for the dequeue itself: the
        // guard is a temporary of this `let` and is dropped before the
        // connection is handled.
        let received = rx.lock().recv();
        let (stream, depth) = match received {
            Ok(pair) => pair,
            Err(_) => break,
        };
        shared.queued.fetch_sub(1, Ordering::SeqCst);
        // Counted served no matter how the conversation ends: the
        // accept/shed/serve ledger must balance even when the peer
        // vanishes mid-request.
        shared.metrics.counter("borges_serve_served_total", 1);
        seq += 1;
        let id = format!("w{worker}-{seq}");
        if handle_connection(shared, &stream, &id, depth) == Action::Shutdown {
            shared.trigger_shutdown();
        }
    }
}

#[derive(PartialEq)]
enum Action {
    None,
    Shutdown,
}

fn handle_connection(shared: &Shared, stream: &TcpStream, id: &str, queue_depth: u64) -> Action {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.read_timeout));
    let mut reader = BufReader::new(stream);
    let request = match parse_request(&mut reader) {
        Ok(request) => request,
        Err(error) => {
            shared
                .metrics
                .counter("borges_serve_requests_error_total", 1);
            let status = match error.status() {
                Some((status, _reason, detail)) => {
                    let mut response = Response::error(status, detail);
                    response.request_id = Some(id.to_string());
                    shared.count_status(status);
                    respond_close(stream, &response, shared.read_timeout);
                    status
                }
                // The peer vanished unanswered: status 0 in the record,
                // and no status-code counter tick (nothing was sent).
                None => 0,
            };
            let world = shared.world.lock().clone();
            shared.observe_request(
                id,
                None,
                "error",
                status,
                0,
                Some(&world),
                RequestObservation::new(),
                queue_depth,
                started,
            );
            return Action::None;
        }
    };

    let route = handlers::route(&request);
    let label = route.label();
    shared
        .metrics
        .counter(&format!("borges_serve_requests_{label}_total"), 1);

    // One Arc clone under a momentary lock: everything this request
    // reads comes from this one world, and its digest is what the
    // access record reports as "the world that answered".
    let mut world = shared.world.lock().clone();
    let mut obs = RequestObservation::new();
    let (mut response, action) = match route {
        Route::AdminReload => match parse_reload_store(&request.body) {
            Err(msg) => (Response::error(400, &msg), Action::None),
            Ok(store) => match shared.reload(store.as_deref()) {
                Ok(epoch) => {
                    // The answer announces the *new* world; the record
                    // carries that world's digest.
                    world = shared.world.lock().clone();
                    (
                        Response::json(
                            200,
                            format!("{{\"status\":\"reloaded\",\"epoch\":{epoch}}}"),
                        ),
                        Action::None,
                    )
                }
                Err(msg) => {
                    let status = if msg == "no reloader configured" {
                        501
                    } else {
                        500
                    };
                    (Response::error(status, &msg), Action::None)
                }
            },
        },
        Route::AdminShutdown => (
            Response::json(200, "{\"status\":\"shutting down\"}"),
            Action::Shutdown,
        ),
        ref route => {
            // `?at=` re-pins the request to a timeline epoch's world
            // *before* the handler runs, so everything downstream —
            // handler, access record, world digest — sees exactly one
            // world, same as a live request.
            let mut early: Option<Response> = None;
            if matches!(route, Route::Map(_)) {
                if let Some(raw_at) = request.query.get("at") {
                    match raw_at.parse::<u64>() {
                        Err(_) => {
                            early = Some(Response::error(
                                400,
                                &format!(
                                    "invalid at {raw_at:?} (expected a non-negative integer epoch)"
                                ),
                            ))
                        }
                        Ok(at) => match &shared.timeline {
                            None => early = Some(Response::error(501, "no timeline configured")),
                            Some(state) => {
                                match state.world_at(at, &shared.metrics, &shared.recorder) {
                                    Ok(epoch_world) => world = epoch_world,
                                    Err(err) => early = Some(timeline::error_response(&err)),
                                }
                            }
                        },
                    }
                }
            }
            match early {
                Some(response) => (response, Action::None),
                None => {
                    let ctx = ServeContext {
                        world: &world,
                        metrics: &shared.metrics,
                        workers: shared.workers,
                        recorder: &shared.recorder,
                        slow_ms: shared.slow_ms,
                        timeline: shared.timeline.as_deref(),
                    };
                    (
                        handlers::respond(route, &request, &ctx, &mut obs),
                        Action::None,
                    )
                }
            }
        }
    };
    response.request_id = Some(id.to_string());
    shared.count_status(response.status);
    respond_close(stream, &response, shared.read_timeout);
    shared.observe_request(
        id,
        Some(&request),
        label,
        response.status,
        response.body.len() as u64,
        Some(&world),
        obs,
        queue_depth,
        started,
    );
    action
}
