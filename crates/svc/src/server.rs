//! The campaign/diagnosis server: accept loop, per-connection sessions,
//! the streaming job driver and the lookup path.
//!
//! # Job lifecycle
//!
//! A [`crate::proto::Request::Submit`] is validated upfront (family,
//! geometry, backgrounds, lane width — refusals are
//! [`Event::Error`] frames, never half-started jobs), answered with
//! [`Event::Accepted`], then driven to completion on the session's
//! thread as **one** [`Campaign::lazy`] over the job's [`LazyUniverse`],
//! with the job's worker pool, deadline and cancel token. Every
//! completed **segment** (`ServerConfig::segment` trials, or the job's
//! override, at most `ServerConfig::shard`) is decoded when it starts
//! and streams one [`Event::Delta`] back over the live connection via
//! the campaign's progress hook, so a `n ≥ 2²⁰` job holds one
//! segment's fault instances at a time, never the whole universe. The
//! stream ends with one [`Event::Done`] carrying the campaign's
//! evaluated prefix, stop cause and degradation counter; the server
//! then closes the connection — one streaming job per connection.
//!
//! # Cancellation and disconnects
//!
//! Each job arms a [`CancelToken`]. A watchdog thread blocks reading
//! the job's connection: **any** in-band byte is a client cancel
//! request, and EOF or a reset is a disconnect — both fire the token,
//! the campaign stops at the next chunk boundary, and the job's workers
//! are freed for other jobs. A dead client never pins the worker pool
//! (chaos-tested in `tests/resilience.rs`).

use std::io::{self, Read};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

use crate::cache::ProgramCache;
use crate::proto::{
    read_frame, write_frame, CoverageDelta, DeltaRow, Event, JobDone, JobSpec, LookupReply,
    LookupSpec, Request, StopKind,
};
use prt_diag::DictionaryStore;
use prt_gf::Poly2;
use prt_march::{library, MarchTest};
use prt_ram::{FaultUniverse, Geometry, LazyUniverse, Topology};
use prt_sim::{
    Campaign, CancelToken, ClassTally, Parallelism, ProgramBank, SegmentProgress, StopCause,
};

/// The default MISR polynomial for dictionary lookups (`x⁸+x⁴+x³+x+1`,
/// the suite-wide 8-bit compaction default).
pub const DEFAULT_POLY_BITS: u64 = 0b1_0001_1011;

/// How long [`ServerHandle::shutdown`] waits for its wake-up connection.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Server tuning knobs. `Default` is a loopback server on an
/// OS-assigned port with in-memory caches.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`"127.0.0.1:0"` = loopback, OS-assigned port).
    pub addr: String,
    /// Worker threads per job's campaign (`0` = auto: the engine's own
    /// sizing).
    pub workers_per_job: usize,
    /// Default streaming segment length in trials (a job's `segment`
    /// field overrides; clamped to ≥ 1).
    pub segment: usize,
    /// At most this many faults decoded at a time: the cap on a job's
    /// segment length, whatever the job asks for (clamped to ≥ 1).
    pub shard: usize,
    /// Disk tier for the dictionary store (`None` = in-memory only).
    pub store_dir: Option<std::path::PathBuf>,
    /// MISR polynomial bits for dictionary lookups.
    pub poly_bits: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers_per_job: 0,
            segment: 512,
            shard: 8192,
            store_dir: None,
            poly_bits: DEFAULT_POLY_BITS,
        }
    }
}

/// State shared by the accept loop and every session.
#[derive(Debug)]
struct Shared {
    config: ServerConfig,
    poly: Poly2,
    programs: ProgramCache,
    dicts: DictionaryStore,
    active_jobs: AtomicUsize,
    shutdown: AtomicBool,
}

/// The spawn half of the service: binds, accepts, and hands each
/// connection to a session thread.
pub struct Server;

impl Server {
    /// Binds `config.addr` and starts the accept loop on a background
    /// thread. The loop blocks in `accept()` and never polls, so a
    /// connecting client is handed to its session as soon as the kernel
    /// completes the handshake. The returned handle owns the server:
    /// dropping it (or calling [`ServerHandle::shutdown`]) stops
    /// accepting; sessions already streaming run to completion and still
    /// end with their `Done` frame.
    ///
    /// # Errors
    ///
    /// The bind error, verbatim.
    pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let poly = Poly2::from_bits(u128::from(config.poly_bits));
        let dicts = match &config.store_dir {
            Some(dir) => DictionaryStore::persistent(dir),
            None => DictionaryStore::in_memory(),
        };
        let shared = Arc::new(Shared {
            config,
            poly,
            programs: ProgramCache::new(),
            dicts,
            active_jobs: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::spawn(move || loop {
            let accepted = listener.accept();
            // Shutdown wakes this blocking accept with a connection of
            // its own; whatever came in with the flag set is dropped.
            if accept_shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    let session_shared = Arc::clone(&accept_shared);
                    thread::spawn(move || session(stream, session_shared));
                }
                // A real accept failure (e.g. `EMFILE`): back off briefly
                // so the loop cannot spin on it.
                Err(_) => thread::sleep(Duration::from_millis(10)),
            }
        });
        Ok(ServerHandle { addr, shared, accept: Some(accept) })
    }
}

/// A running server: address, cache/health observables, shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Jobs currently streaming. A disconnected client's job leaves
    /// this counter as soon as its cancellation lands — the observable
    /// the resilience chaos test drains to zero.
    pub fn active_jobs(&self) -> usize {
        self.shared.active_jobs.load(Ordering::Relaxed)
    }

    /// Real compilations the program cache has run (cache hits don't
    /// count).
    pub fn program_compiles(&self) -> usize {
        self.shared.programs.compiles()
    }

    /// Real universe simulations the dictionary store has run (memory
    /// and disk hits don't count).
    pub fn dictionary_builds(&self) -> usize {
        self.shared.dicts.builds()
    }

    /// Stops accepting connections and joins the accept loop: sets the
    /// shutdown flag, then wakes the blocked `accept()` by connecting to
    /// the bound address once (loopback when bound to an unspecified
    /// address). Connections that arrive from then on are never served.
    /// Sessions already streaming complete on their own threads and
    /// still end with their `Done` frame.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(accept) = self.accept.take() else { return };
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // The connect is bounded, and the loop is joined only once it is
        // known to be woken, so a failed wake cannot hang the caller (the
        // loop then exits at its next accept).
        if TcpStream::connect_timeout(&wake, WAKE_TIMEOUT).is_ok() {
            let _ = accept.join();
        }
    }
}

/// Stops the server exactly like [`ServerHandle::shutdown`].
impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Decrements `active_jobs` on every exit path of a job.
struct JobGuard<'a>(&'a AtomicUsize);

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Writes one event frame to the connection.
fn send_event(stream: &TcpStream, event: &Event) -> io::Result<()> {
    let mut w = stream;
    write_frame(&mut w, &event.encode())
}

/// One connection: lookups repeat until a submit arrives; the submit
/// streams its job and then the connection closes.
fn session(stream: TcpStream, shared: Arc<Shared>) {
    let Ok(mut reader) = stream.try_clone() else { return };
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(_) => return,
        };
        match Request::decode(&payload) {
            Err(e) => {
                let _ = send_event(&stream, &Event::Error { code: 1, message: e.to_string() });
                return;
            }
            Ok(Request::Lookup(spec)) => {
                let event = match handle_lookup(&shared, &spec) {
                    Ok(reply) => Event::Candidates(reply),
                    Err((code, message)) => Event::Error { code, message },
                };
                if send_event(&stream, &event).is_err() {
                    return;
                }
            }
            Ok(Request::Submit(job)) => {
                run_job(stream, reader, &shared, job);
                return;
            }
        }
    }
}

/// Resolves a March-library test by its display name. The library is
/// parsed once per process, not once per request.
fn resolve_family(name: &str) -> Option<&'static MarchTest> {
    static LIBRARY: OnceLock<Vec<MarchTest>> = OnceLock::new();
    LIBRARY.get_or_init(library::all).iter().find(|t| t.name() == name)
}

/// Builds the device geometry from wire fields.
fn make_geometry(cells: u64, width: u32) -> Result<Geometry, String> {
    let cells = usize::try_from(cells).map_err(|_| "cell count overflows this host".to_string())?;
    if cells == 0 {
        return Err("memory must have at least one cell".to_string());
    }
    Geometry::wom(cells, width.max(1)).map_err(|e| e.to_string())
}

/// Per-class counts of one completed segment, in first-seen class order,
/// tallied by the campaign's own [`ClassTally`].
fn delta_rows(seg: &SegmentProgress<'_>) -> Vec<DeltaRow> {
    let mut tally = ClassTally::new();
    for (fault, &detected) in seg.faults.iter().zip(seg.verdicts) {
        tally.record(fault.mnemonic(), detected);
    }
    tally
        .rows()
        .iter()
        .map(|row| DeltaRow {
            class: row.class.to_string(),
            detected: row.detected as u64,
            total: row.total as u64,
        })
        .collect()
}

/// Validates, accepts and drives one submitted job, streaming deltas
/// over `stream`; `reader` (a clone of the same socket) becomes the
/// disconnect watchdog. Consumes the connection.
fn run_job(stream: TcpStream, reader: TcpStream, shared: &Shared, job: JobSpec) {
    let refuse = |code: u16, message: String| {
        let _ = send_event(&stream, &Event::Error { code, message });
    };
    let Some(test) = resolve_family(&job.family) else {
        return refuse(1, format!("unknown test family '{}'", job.family));
    };
    let geom = match make_geometry(job.cells, job.width) {
        Ok(geom) => geom,
        Err(reason) => return refuse(1, reason),
    };
    if job.backgrounds.is_empty() {
        return refuse(1, "at least one data background required".to_string());
    }
    // The lane width is a wire field kept for old clients: the values
    // they may send are accepted and select nothing (every campaign lane
    // batch is 512 lanes); anything else is refused.
    if !matches!(job.lane_width, 0 | 64 | 256 | 512) {
        return refuse(1, format!("unsupported lane width {} (64/256/512)", job.lane_width));
    }

    // Physical topology: validated against the geometry up front, then
    // threaded into the enumeration (faults keep logical addresses, so
    // the campaign engine itself is topology-blind).
    let topology = match &job.topology {
        Some(t) if t.cells() != geom.cells() => {
            return refuse(
                1,
                format!("topology covers {} cells but the device has {}", t.cells(), geom.cells()),
            );
        }
        Some(t) => t.clone(),
        None => Topology::identity(geom.cells()),
    };

    // Universe: lazy for every spec — coupling families enumerate through
    // the O(1)-memory pair arithmetic, so no job materializes its universe
    // (the topology applies per decoded index, keeping the O(1) contract
    // under scrambling).
    let lazy = LazyUniverse::new_with(geom, job.spec, topology);
    let total = lazy.len() as u64;

    // Programs from the shared cache — every concurrent job with this
    // configuration drives the same compiled artifacts.
    let programs: Vec<(u64, Arc<prt_ram::TestProgram>)> =
        job.backgrounds.iter().map(|&bg| (bg, shared.programs.get(test, geom, bg))).collect();
    let ports = programs.iter().map(|(_, p)| p.ports()).max().unwrap_or(1);
    let bank = ProgramBank::new(programs);

    if send_event(&stream, &Event::Accepted { total }).is_err() {
        return;
    }

    shared.active_jobs.fetch_add(1, Ordering::Relaxed);
    let _guard = JobGuard(&shared.active_jobs);

    // Watchdog: any in-band byte is a cancel request, EOF/reset is a
    // disconnect — either way the token fires and the job's workers are
    // freed at the next chunk boundary.
    let token = CancelToken::new();
    let watchdog = {
        let token = token.clone();
        thread::spawn(move || {
            let mut byte = [0u8; 1];
            let _ = (&reader).read(&mut byte);
            token.cancel();
        })
    };

    // `shard` caps the segment, so a job decodes at most that many faults
    // at a time, whatever segment it asks for.
    let segment = if job.segment == 0 { shared.config.segment } else { job.segment as usize };
    let segment = segment.clamp(1, shared.config.shard.max(1));
    let parallelism = match shared.config.workers_per_job {
        0 => Parallelism::Auto,
        n => Parallelism::Threads(n),
    };
    let seq = AtomicU64::new(0);
    let mut campaign = Campaign::lazy(&lazy, &bank)
        .with_backgrounds(&job.backgrounds)
        .with_ports(ports)
        .with_parallelism(parallelism)
        .with_name(format!("svc:{}", job.family))
        .with_cancel(&token)
        .with_progress(segment, |seg: SegmentProgress<'_>| {
            let delta = CoverageDelta {
                seq: seq.fetch_add(1, Ordering::Relaxed),
                start: seg.start as u64,
                end: seg.end as u64,
                rows: delta_rows(&seg),
            };
            if send_event(&stream, &Event::Delta(delta)).is_err() {
                // The client is gone: stop paying for its sweep.
                token.cancel();
            }
        });
    if job.deadline_ms > 0 {
        campaign = campaign.with_deadline(Duration::from_millis(job.deadline_ms));
    }
    let terminal = match campaign.try_run() {
        Ok(report) => {
            let (evaluated, cause) = match report.partial().map(|p| (p.evaluated, p.cause)) {
                None => (total, StopKind::Complete),
                Some((at, StopCause::DeadlineExceeded)) => (at as u64, StopKind::Deadline),
                Some((at, StopCause::Cancelled)) => (at as u64, StopKind::Cancelled),
            };
            let degraded = report.degraded_batches() as u64;
            Event::Done(JobDone { evaluated, total, cause, degraded })
        }
        Err(e) => Event::Error { code: 2, message: e.to_string() },
    };
    // Closing the socket also wakes the watchdog out of its blocking read.
    let _ = send_event(&stream, &terminal);
    let _ = stream.shutdown(Shutdown::Both);
    let _ = watchdog.join();
}

/// Answers one dictionary query from the shared store.
fn handle_lookup(shared: &Shared, spec: &LookupSpec) -> Result<LookupReply, (u16, String)> {
    let Some(test) = resolve_family(&spec.family) else {
        return Err((1, format!("unknown test family '{}'", spec.family)));
    };
    let geom = make_geometry(spec.cells, spec.width).map_err(|reason| (1, reason))?;
    let universe = FaultUniverse::enumerate(geom, &spec.spec);
    let program = shared.programs.get(test, geom, 0);
    let full = shared
        .dicts
        .get_or_build(&universe, &program, shared.poly, Parallelism::Auto)
        .map_err(|e| (2, e.to_string()))?;
    let dict = if spec.prefix_bits == 0 {
        full
    } else {
        if spec.prefix_bits > full.collector().width() {
            return Err((
                1,
                format!(
                    "prefix width {} exceeds the {}-bit MISR",
                    spec.prefix_bits,
                    full.collector().width()
                ),
            ));
        }
        shared
            .dicts
            .get_compressed(&universe, &program, shared.poly, Parallelism::Auto, spec.prefix_bits)
            .map_err(|e| (2, e.to_string()))?
    };
    let candidates = dict.candidates(spec.signature);
    Ok(LookupReply {
        candidates: candidates.iter().map(|&i| i as u64).collect(),
        faults: candidates.iter().map(|&i| dict.faults()[i].to_string()).collect(),
        builds: shared.dicts.builds() as u64,
        reference: dict.reference(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use prt_ram::UniverseSpec;
    use std::sync::mpsc;

    /// A March C- job over a bit-oriented memory of `cells` cells.
    fn job(cells: u64, spec: UniverseSpec, segment: u32) -> JobSpec {
        JobSpec {
            family: library::march_c_minus().name().to_string(),
            cells,
            width: 1,
            spec,
            backgrounds: vec![0],
            lane_width: 0,
            deadline_ms: 0,
            segment,
            topology: None,
        }
    }

    /// Shuts `server` down on a helper thread and fails, instead of
    /// hanging, when `shutdown` does not return within 10 s.
    fn shutdown_or_fail(server: ServerHandle) {
        let (tx, rx) = mpsc::channel();
        let helper = thread::spawn(move || {
            server.shutdown();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(10)).expect("shutdown must wake the blocked accept");
        helper.join().expect("shutdown helper");
    }

    #[test]
    fn shutdown_wakes_an_idle_accept_and_refuses_new_jobs() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let config = ServerConfig { addr: bind.to_string(), ..ServerConfig::default() };
            let server = Server::spawn(config).expect("bind");
            let port = server.addr().port();
            // No client ever connected, so the accept loop is blocked.
            shutdown_or_fail(server);
            let accepted = Client::connect((Ipv4Addr::LOCALHOST, port))
                .ok()
                .and_then(|client| client.submit(&job(8, UniverseSpec::single_cell(), 0)).ok());
            assert!(accepted.is_none(), "a server bound to {bind} accepted a job after shutdown");
        }
    }

    #[test]
    fn streaming_job_completes_across_shutdown() {
        let server = Server::spawn(ServerConfig::default()).expect("bind");
        let client = Client::connect(server.addr()).expect("connect");
        // About 10k faults streamed 16 at a time: far from done after its
        // first delta.
        let mut stream =
            client.submit(&job(32, UniverseSpec::paper_claim(), 16)).expect("job accepted");
        assert!(matches!(stream.next_event(), Ok(Some(Event::Delta(_)))), "the job is streaming");
        shutdown_or_fail(server);
        let (deltas, done) = stream.drain().expect("the stream still ends with Done");
        assert_eq!(done.cause, StopKind::Complete);
        assert_eq!(done.evaluated, done.total);
        assert_eq!(deltas.last().map(|d| d.end), Some(done.total));
    }

    /// Runs `spec` on a fresh server with `config` and checks that its
    /// deltas tile `[0, evaluated)` in order, none longer than
    /// `longest` trials.
    fn drain_tiled(config: ServerConfig, spec: &JobSpec, longest: u64) -> JobDone {
        let server = Server::spawn(config).expect("bind");
        let client = Client::connect(server.addr()).expect("connect");
        let stream = client.submit(spec).expect("job accepted");
        let (deltas, done) = stream.drain().expect("the stream ends with Done");
        let mut cursor = 0;
        for delta in &deltas {
            assert_eq!(delta.start, cursor, "each delta starts where the last ended");
            assert!(delta.end > delta.start && delta.end - delta.start <= longest, "{delta:?}");
            cursor = delta.end;
        }
        assert_eq!(cursor, done.evaluated, "deltas tile the evaluated prefix");
        done
    }

    #[test]
    fn job_deadline_stops_it_mid_universe() {
        // The 654,592 faults of BOM-256 `paper_claim`, streamed 64 at a
        // time, take about 0.3 s in a release build: a 20 ms deadline
        // stops the job part way, with the full pass and no index build.
        let spec = JobSpec { deadline_ms: 20, ..job(256, UniverseSpec::paper_claim(), 64) };
        let done = drain_tiled(ServerConfig::default(), &spec, 64);
        assert_eq!(done.cause, StopKind::Deadline);
        assert!(done.evaluated < done.total, "{done:?}");
    }

    #[test]
    fn oversized_segment_streams_shard_sized_deltas() {
        // The job asks for 1,000-trial segments; the server decodes at
        // most 100 faults at a time, so no delta is longer.
        let config = ServerConfig { shard: 100, ..ServerConfig::default() };
        let done = drain_tiled(config, &job(16, UniverseSpec::paper_claim(), 1000), 100);
        assert_eq!(done.cause, StopKind::Complete);
        assert_eq!(done.evaluated, done.total);
    }
}
