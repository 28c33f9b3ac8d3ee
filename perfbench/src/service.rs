//! `service`: an in-process `prt_svc::Server` on loopback driven by a
//! closed loop of one client per core. Each client works through a
//! seeded shuffle of a fixed request deck — small v1 Submits, large
//! lazily sharded v2 Submits and dictionary Lookups — and blocks on every
//! reply before sending the next request.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use prt_diag::FaultDictionary;
use prt_march::library;
use prt_ram::{FaultUniverse, Geometry, LazyUniverse, SplitMix64, Topology, UniverseSpec};
use prt_sim::{Campaign, Parallelism};
use prt_svc::proto::Request;
use prt_svc::{
    Client, CoverageDelta, Event, JobDone, JobSpec, LookupSpec, ProgramCache, Server, ServerConfig,
    ServerHandle,
};

use crate::replay::{self, default_poly, Case};
use crate::trace::{Metric, Tracer};
use crate::{Op, Phase, Workload};

const SMALL_CELLS: usize = 16;
const LARGE_CELLS: usize = 4096;
/// Requests per deck, in a fixed mix so every seed weighs them alike.
const DECK: [Ask; 10] = {
    use Ask::*;
    [Small, Small, Small, Small, Large, Large, Lookup, Lookup, Lookup, Lookup]
};
/// Lookup signatures prepared per run.
const LOOKUPS: usize = 64;
/// How long the server may take to drain its jobs after the load stops.
const DRAIN: Duration = Duration::from_secs(5);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Ask {
    Small,
    Large,
    Lookup,
}

/// Per-class `(detected, total)` of a coverage result.
type Tally = BTreeMap<String, (u64, u64)>;

/// A Submit with the tally an in-process campaign reports for it.
struct Job {
    spec: JobSpec,
    expected: Tally,
}

pub struct Service {
    server: Option<ServerHandle>,
    small: Job,
    large: Job,
    large_topology: Topology,
    /// `(lookup, universe index the answer must contain)`.
    lookups: Vec<(LookupSpec, u64)>,
    scratch: std::path::PathBuf,
    seed: u64,
    next_op: u64,
}

fn job(cells: usize, spec: UniverseSpec, topology: Option<Topology>) -> Job {
    let geom = Geometry::bom(cells);
    // Decoded the way the server shards it, without the n² pair list
    // `FaultUniverse::enumerate_with` builds.
    let topology_or_identity = topology.clone().unwrap_or_else(|| Topology::identity(cells));
    let universe = LazyUniverse::new_with(geom, spec, topology_or_identity).materialize();
    let program = ProgramCache::new().get(&library::march_c_minus(), geom, 0);
    let report = Campaign::new(&universe, &*program)
        .with_slicing(false)
        .try_run()
        .expect("the full-pass oracle runs");
    let expected = report
        .rows()
        .iter()
        .map(|r| (r.class.to_string(), (r.detected as u64, r.total as u64)))
        .collect();
    let spec = JobSpec {
        family: library::march_c_minus().name().to_string(),
        cells: cells as u64,
        width: 1,
        spec,
        backgrounds: vec![0],
        lane_width: 0,
        deadline_ms: 0,
        segment: 0,
        topology,
    };
    Job { spec, expected }
}

/// Lookups of the signatures of seeded detected faults of the small
/// Submit's universe, which the server's dictionary must resolve.
fn lookups(seed: u64) -> Vec<(LookupSpec, u64)> {
    let geom = Geometry::bom(SMALL_CELLS);
    let universe = FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim());
    let program = ProgramCache::new().get(&library::march_c_minus(), geom, 0);
    let dict = FaultDictionary::build(&universe, &program, default_poly(), Parallelism::Auto)
        .expect("the default polynomial is valid");
    let visible: Vec<usize> = (0..universe.len())
        .filter(|&i| {
            let o = dict.observations()[i];
            o.stream_differs() && o.signature != dict.reference()
        })
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0x5eed_100c);
    (0..LOOKUPS)
        .map(|_| {
            let i = visible[rng.next_below(visible.len() as u64) as usize];
            let spec = LookupSpec {
                family: library::march_c_minus().name().to_string(),
                cells: SMALL_CELLS as u64,
                width: 1,
                spec: UniverseSpec::paper_claim(),
                signature: dict.observations()[i].signature,
                prefix_bits: 0,
            };
            (spec, i as u64)
        })
        .collect()
}

pub fn setup(seed: u64, dir: &std::path::Path) -> Service {
    let large_topology = Topology::generate(LARGE_CELLS, seed);
    let service = Service {
        server: Some(Server::spawn(ServerConfig::default()).expect("bind loopback")),
        small: job(SMALL_CELLS, UniverseSpec::paper_claim(), None),
        large: job(LARGE_CELLS, UniverseSpec::single_cell(), Some(large_topology.clone())),
        large_topology,
        lookups: lookups(seed),
        scratch: dir.into(),
        seed,
        next_op: 0,
    };
    // Warm the server's program cache, activity indexes and dictionary.
    let addr = service.addr();
    for job in [&service.small, &service.large] {
        let outcome = submit(addr, job, None, 0);
        assert!(outcome.ok, "warm-up submit completes");
    }
    let mut client = Client::connect(addr).expect("connect");
    let (spec, index) = &service.lookups[0];
    let reply = client.lookup(spec).expect("warm-up lookup");
    assert!(reply.candidates.contains(index), "warm-up lookup finds its fault");
    service
}

/// The client-side view of one Submit.
struct Submitted {
    ok: bool,
    done: Duration,
    first_delta: Option<Duration>,
    faults: u64,
}

/// Runs one Submit to completion on a fresh connection and checks it.
fn submit(addr: SocketAddr, job: &Job, tracer: Option<&Tracer>, op: u64) -> Submitted {
    let t0 = Instant::now();
    let mut out = Submitted { ok: false, done: Duration::ZERO, first_delta: None, faults: 0 };
    let Ok(client) = Client::connect(addr) else { return out };
    let Ok(mut stream) = client.submit(&job.spec) else { return out };
    let accepted = Instant::now();
    let mut deltas: Vec<CoverageDelta> = Vec::new();
    let mut done: Option<JobDone> = None;
    while let Ok(Some(event)) = stream.next_event() {
        match event {
            Event::Delta(d) => {
                out.first_delta.get_or_insert_with(|| t0.elapsed());
                deltas.push(d);
            }
            Event::Done(d) => done = Some(d),
            _ => break,
        }
    }
    out.done = t0.elapsed();
    let mut tally = Tally::new();
    for row in deltas.iter().flat_map(|d| &d.rows) {
        let e = tally.entry(row.class.clone()).or_default();
        e.0 += row.detected;
        e.1 += row.total;
    }
    out.ok = done.is_some_and(|d| d.evaluated == d.total) && tally == job.expected;
    out.faults = done.map_or(0, |d| d.evaluated);
    if let Some(t) = tracer {
        let root = t.add("svc.job", op, None, t0, 1, out.done);
        t.add("svc.connect_to_accepted", op, Some(root), t0, 1, accepted - t0);
        if let Some(first) = out.first_delta {
            t.add(
                "svc.accepted_to_first_delta",
                op,
                Some(root),
                accepted,
                1,
                first - (accepted - t0),
            );
        }
        frames(t, op, root, &job.spec, &deltas, done);
    }
    out
}

/// Encodes and decodes the job's own frames, timing each call.
fn frames(
    t: &Tracer,
    op: u64,
    parent: usize,
    spec: &JobSpec,
    deltas: &[CoverageDelta],
    done: Option<JobDone>,
) {
    let request = Request::Submit(spec.clone());
    let mut events: Vec<Event> = deltas.iter().cloned().map(Event::Delta).collect();
    events.extend(done.map(Event::Done));
    let (mut enc, mut dec, mut bytes) = (Duration::ZERO, Duration::ZERO, 0usize);
    let start = Instant::now();
    let payload = request.encode();
    enc += start.elapsed();
    let t1 = Instant::now();
    let back = Request::decode(&payload);
    dec += t1.elapsed();
    assert!(back.is_ok_and(|r| r == request), "request frames round-trip");
    bytes += payload.len();
    for event in &events {
        let t1 = Instant::now();
        let payload = event.encode();
        enc += t1.elapsed();
        let t1 = Instant::now();
        let back = Event::decode(&payload);
        dec += t1.elapsed();
        assert!(back.is_ok_and(|e| e == *event), "event frames round-trip");
        bytes += payload.len();
    }
    let calls = 1 + events.len() as u64;
    t.add("svc.encode", op, Some(parent), start, calls, enc);
    t.add("svc.decode", op, Some(parent), start, calls, dec);
    t.count("svc.frame_bytes", bytes as f64);
}

/// What one client thread measured.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    /// Completed Submits.
    jobs: Vec<Op>,
    first_delta_ms: Vec<f64>,
    lookup_ms: Vec<f64>,
}

impl Service {
    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server runs until finish").addr()
    }

    fn client(
        &self,
        id: u64,
        start: Instant,
        deadline: Instant,
        tracer: Option<&Tracer>,
        ops: &AtomicU64,
    ) -> ClientLog {
        let addr = self.addr();
        let server = self.server.as_ref().expect("server runs until finish");
        let mut rng = SplitMix64::new(self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ id);
        let mut log = ClientLog::default();
        let mut lookup_conn = Client::connect(addr).ok();
        let mut deck: Vec<Ask> = Vec::new();
        while Instant::now() < deadline {
            if deck.is_empty() {
                deck = DECK.to_vec();
                rng.shuffle(&mut deck);
            }
            let op = ops.fetch_add(1, Ordering::Relaxed);
            log.attempted += 1;
            match deck.pop().expect("refilled above") {
                Ask::Lookup => {
                    let (spec, index) = &self.lookups[rng.next_below(LOOKUPS as u64) as usize];
                    let t0 = Instant::now();
                    let reply = lookup_conn.as_mut().map(|c| c.lookup(spec));
                    let took = t0.elapsed();
                    let ok = matches!(reply, Some(Ok(ref r)) if r.candidates.contains(index));
                    if let Some(t) = tracer {
                        t.add("svc.lookup", op, None, t0, 1, took);
                    }
                    log.failed += u64::from(!ok);
                    log.lookup_ms.push(took.as_secs_f64() * 1e3);
                }
                kind => {
                    let job = if kind == Ask::Small { &self.small } else { &self.large };
                    let s = submit(addr, job, tracer, op);
                    if let Some(t) = tracer {
                        t.count("svc.active_jobs", server.active_jobs() as f64);
                    }
                    log.failed += u64::from(!s.ok);
                    if s.ok {
                        let end = start.elapsed().as_secs_f64();
                        log.jobs.push(Op {
                            end,
                            work: s.faults as f64,
                            secs: s.done.as_secs_f64(),
                        });
                        if let Some(first) = s.first_delta {
                            log.first_delta_ms.push(first.as_secs_f64() * 1e3);
                        }
                    }
                }
            }
        }
        log
    }

    /// Replays the large job's inputs once through the layer calls the
    /// server makes: program compile, lazy sharding, the lookup's
    /// universe enumeration and the campaign's per-chunk interpreter.
    fn replay(&self, t: &Tracer, op: u64) -> bool {
        let root = t.open("replay", op, None);
        let geom = Geometry::bom(LARGE_CELLS);
        let cache = ProgramCache::new();
        let program = t.time("march.compile", op, Some(root), || {
            cache.get(&library::march_c_minus(), geom, 0)
        });
        let lookup = t.time("ram.enumerate", op, Some(root), || {
            FaultUniverse::enumerate(Geometry::bom(SMALL_CELLS), &UniverseSpec::paper_claim())
        });
        let mut ok = lookup.len() == self.small.expected.values().map(|&(_, n)| n as usize).sum();
        let lazy = LazyUniverse::new_with(geom, self.large.spec.spec, self.large_topology.clone());
        let shard = ServerConfig::default().shard;
        let start = Instant::now();
        let mut faults = Vec::with_capacity(lazy.len());
        let mut lo = 0;
        while lo < lazy.len() {
            let hi = (lo + shard).min(lazy.len());
            faults.extend(lazy.slice(lo, hi));
            lo = hi;
        }
        t.add("ram.lazy_slice", op, Some(root), start, lazy.len() as u64, start.elapsed());
        let case = Case { geom, faults: &faults, programs: vec![&*program] };
        replay::activity_index(t, op, root, &case);
        let fp = replay::fingerprint(t, op, root, &case);
        let r = replay::chunks(t, op, root, &case, 8);
        let detected = r.verdicts.iter().filter(|&&v| v).count() as u64;
        ok &= r.mismatches == 0
            && detected == self.large.expected.values().map(|&(d, _)| d).sum::<u64>();
        let path = self.scratch.join(format!("replay-{}.ckpt", std::process::id()));
        replay::save(t, op, root, &path, fp, &r.verdicts);
        replay::misr(t, op, root, &program);
        t.close(root);
        ok
    }
}

impl Workload for Service {
    fn measure(&mut self, secs: f64, tracer: Option<&Tracer>) -> Phase {
        let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
        let ops = AtomicU64::new(self.next_op);
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs);
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients as u64)
                .map(|id| {
                    let ops = &ops;
                    let this = &*self;
                    scope.spawn(move || this.client(id, start, deadline, tracer, ops))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let wall = start.elapsed().as_secs_f64();
        self.next_op = ops.into_inner();
        let mut all = ClientLog::default();
        for log in logs {
            all.attempted += log.attempted;
            all.failed += log.failed;
            all.jobs.extend(log.jobs);
            all.first_delta_ms.extend(log.first_delta_ms);
            all.lookup_ms.extend(log.lookup_ms);
        }
        if let Some(t) = tracer {
            let server = self.server.as_ref().expect("server runs until finish");
            t.count("svc.program_compiles", server.program_compiles() as f64);
            t.count("svc.dictionary_builds", server.dictionary_builds() as f64);
            all.attempted += 1;
            all.failed += u64::from(!self.replay(t, self.next_op));
            self.next_op += 1;
        }
        all.jobs.sort_by(|a, b| a.end.total_cmp(&b.end));
        let done_ms: Vec<f64> = all.jobs.iter().map(|o| o.secs * 1e3).collect();
        let jobs_per_s = all.jobs.len() as f64 / wall;
        Phase {
            attempted: all.attempted,
            failed: all.failed,
            report: vec![
                Metric::quantile("first_delta_ms_p50", "ms", &all.first_delta_ms, 0.5),
                Metric::quantile("first_delta_ms_p90", "ms", &all.first_delta_ms, 0.9),
                Metric::quantile("submit_done_ms_p50", "ms", &done_ms, 0.5),
                Metric::quantile("submit_done_ms_p90", "ms", &done_ms, 0.9),
                Metric::quantile("lookup_ms_p50", "ms", &all.lookup_ms, 0.5),
                Metric::quantile("lookup_ms_p90", "ms", &all.lookup_ms, 0.9),
                Metric::value("jobs_per_s", "1/s", jobs_per_s, all.jobs.len()),
                Metric::value("clients", "count", clients as f64, 1),
            ],
            faulted: all.jobs.clone(),
            ops: all.jobs,
            concurrent: true,
            wall,
        }
    }

    /// Waits for the server's jobs to drain, then shuts it down; a server
    /// that does not drain counts as one failed operation.
    fn finish(mut self: Box<Self>) -> u64 {
        let server = self.server.take().expect("finish runs once");
        let until = Instant::now() + DRAIN;
        while server.active_jobs() > 0 && Instant::now() < until {
            std::thread::sleep(Duration::from_millis(1));
        }
        let drained = server.active_jobs() == 0;
        server.shutdown();
        u64::from(!drained)
    }
}
