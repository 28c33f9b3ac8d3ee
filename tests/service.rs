//! End-to-end acceptance tests of the campaign service (`prt-svc`): an
//! in-process server, real TCP clients, and the batch-mode engines as
//! ground truth. The load-bearing properties:
//!
//! * **Streamed ≡ batch.** Two concurrent clients each receive a
//!   monotonically growing delta stream whose final per-class aggregate
//!   is bit-identical to the batch-mode [`Campaign`] report for the
//!   same job.
//! * **Caches cache.** A repeated dictionary query is served without a
//!   rebuild (the build counter is reported over the wire), and repeat
//!   jobs share one compiled program per configuration.
//! * **Lazy universes stream too.** A dense (coupling-free) spec — the
//!   path that shards through `LazyUniverse` without materializing the
//!   universe — produces the same aggregate as eager batch mode.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use prt_suite::prelude::*;
use prt_svc::{
    Client, CoverageDelta, JobDone, JobSpec, LookupSpec, Server, ServerConfig, ServerHandle,
    StopKind,
};

/// Per-process unique store directories.
static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_store(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "prt-service-{}-{tag}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn spawn_server(tag: &str) -> ServerHandle {
    Server::spawn(ServerConfig {
        segment: 64,
        shard: 256,
        store_dir: Some(temp_store(tag)),
        ..ServerConfig::default()
    })
    .expect("spawn service")
}

/// Drains one job's stream, asserting the deltas are an in-order tiling
/// of `[0, done.evaluated)`; returns the per-class aggregate.
fn drain_checked(
    addr: std::net::SocketAddr,
    job: &JobSpec,
) -> (BTreeMap<String, (u64, u64)>, Vec<CoverageDelta>, JobDone) {
    let client = Client::connect(addr).expect("connect");
    let stream = client.submit(job).expect("submit");
    let total = stream.total();
    let (deltas, done) = stream.drain().expect("stream");
    assert_eq!(done.total, total, "accepted total must match the terminal total");
    let mut cursor = 0u64;
    let mut aggregate: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (i, delta) in deltas.iter().enumerate() {
        assert_eq!(delta.seq, i as u64, "sequence numbers are dense from 0");
        assert_eq!(delta.start, cursor, "each delta starts where the last ended");
        assert!(delta.end > delta.start, "deltas carry at least one trial");
        cursor = delta.end;
        let mut in_delta = 0u64;
        for row in &delta.rows {
            assert!(row.detected <= row.total, "detected cannot exceed total");
            let entry = aggregate.entry(row.class.clone()).or_insert((0, 0));
            entry.0 += row.detected;
            entry.1 += row.total;
            in_delta += row.total;
        }
        assert_eq!(
            in_delta,
            delta.end - delta.start,
            "a delta's rows account for exactly its segment"
        );
    }
    assert_eq!(cursor, done.evaluated, "deltas tile the evaluated prefix exactly");
    (aggregate, deltas, done)
}

/// The batch-mode ground truth for the same job.
fn batch_aggregate(job: &JobSpec) -> BTreeMap<String, (u64, u64)> {
    let geom = Geometry::wom(job.cells as usize, job.width.max(1)).expect("geometry");
    let topology = job.topology.clone().unwrap_or_else(|| Topology::identity(geom.cells()));
    let universe = FaultUniverse::enumerate_with(geom, &job.spec, topology);
    let programs: Vec<(u64, TestProgram)> = job
        .backgrounds
        .iter()
        .map(|&bg| (bg, Executor::new().with_background(bg).compile(&resolve(&job.family), geom)))
        .collect();
    let bank = ProgramBank::new(programs);
    let report = Campaign::new(&universe, &bank).with_backgrounds(&job.backgrounds).run();
    assert!(report.partial().is_none(), "the uninterrupted batch oracle evaluates everything");
    report
        .rows()
        .iter()
        .map(|row| (row.class.to_string(), (row.detected as u64, row.total as u64)))
        .collect()
}

fn resolve(family: &str) -> MarchTest {
    march_library::all()
        .into_iter()
        .chain([march_library::march_diag()])
        .find(|t| t.name() == family)
        .expect("known family")
}

/// THE acceptance test: two concurrent clients, same job; both streams
/// tile monotonically and both aggregates equal the batch-mode report.
#[test]
fn concurrent_streams_aggregate_to_batch_report() {
    let server = spawn_server("concurrent");
    let addr = server.addr();
    let job = JobSpec {
        family: "March C-".to_string(),
        cells: 16,
        width: 1,
        spec: UniverseSpec::full(),
        backgrounds: vec![0, 0b1],
        lane_width: 0,
        deadline_ms: 0,
        segment: 64,
        topology: None,
    };
    let want = batch_aggregate(&job);

    let clients: Vec<_> = (0..2)
        .map(|_| {
            let job = job.clone();
            thread::spawn(move || drain_checked(addr, &job))
        })
        .collect();
    for handle in clients {
        let (aggregate, deltas, done) = handle.join().expect("client thread");
        assert_eq!(done.cause, StopKind::Complete);
        assert_eq!(done.evaluated, done.total);
        assert!(deltas.len() > 1, "a multi-segment job must stream more than one delta");
        assert_eq!(aggregate, want, "streamed aggregate must equal the batch report");
    }

    // Two concurrent identical jobs share compiled programs: one compile
    // per (family, geometry, background), not per job.
    assert_eq!(
        server.program_compiles(),
        job.backgrounds.len(),
        "concurrent identical jobs must share the compiled-program cache"
    );
}

/// A dense single-cell spec big enough to exercise the lazy universe
/// path shards without materializing, and still aggregates exactly to
/// the eager batch report.
#[test]
fn lazy_dense_universe_streams_exact_aggregate() {
    let server = spawn_server("lazy");
    let job = JobSpec {
        family: "MATS+".to_string(),
        cells: 512,
        width: 1,
        // Dense read/write families, no couplings ⇒ the server shards
        // through LazyUniverse (asserted structurally in crates/ram).
        spec: UniverseSpec::single_cell(),
        backgrounds: vec![0],
        lane_width: 0,
        deadline_ms: 0,
        segment: 128,
        topology: None,
    };
    let (aggregate, deltas, done) = drain_checked(server.addr(), &job);
    assert_eq!(done.cause, StopKind::Complete);
    assert!(
        deltas.len() as u64 >= done.total / 256,
        "shards must stream per-segment, not one terminal delta"
    );
    assert_eq!(aggregate, batch_aggregate(&job));
}

/// A v2 (topology-carrying) job over the wire: the server enumerates the
/// universe under the scramble and the streamed aggregate equals the
/// local scrambled batch report — while the identity-topology job on the
/// same connection config matches its own (different) baseline, and a
/// mis-sized topology is refused before any sweep starts.
#[test]
fn scrambled_job_streams_scrambled_universe() {
    let server = spawn_server("scrambled");
    let scramble = Topology::identity(64)
        .then_swizzle(Scrambler::reversed(6))
        .expect("64-cell swizzle")
        .then_fold()
        .expect("even fold");
    let job = JobSpec {
        family: "March C-".to_string(),
        cells: 64,
        width: 1,
        spec: UniverseSpec::paper_claim(),
        backgrounds: vec![0],
        lane_width: 0,
        deadline_ms: 0,
        segment: 64,
        topology: Some(scramble),
    };
    let (aggregate, _, done) = drain_checked(server.addr(), &job);
    assert_eq!(done.cause, StopKind::Complete);
    assert_eq!(aggregate, batch_aggregate(&job), "scrambled stream ≡ scrambled batch");

    // The identity job is a *different* sweep (the AF pairing moves), yet
    // the per-class totals agree — the scramble renames, never drops.
    let identity = JobSpec { topology: None, ..job.clone() };
    let (id_aggregate, _, id_done) = drain_checked(server.addr(), &identity);
    assert_eq!(id_done.cause, StopKind::Complete);
    assert_eq!(id_aggregate, batch_aggregate(&identity));
    assert_eq!(id_done.total, done.total, "a bijection cannot change the universe size");
    let totals = |m: &BTreeMap<String, (u64, u64)>| -> BTreeMap<String, u64> {
        m.iter().map(|(k, &(_, t))| (k.clone(), t)).collect()
    };
    assert_eq!(totals(&aggregate), totals(&id_aggregate));

    // A topology sized for the wrong device is refused up front.
    let wrong =
        JobSpec { topology: Some(Topology::identity(32).then_fold().expect("fold")), ..job };
    let client = Client::connect(server.addr()).expect("connect");
    let err = client.submit(&wrong).expect_err("mis-sized topology must be refused");
    assert!(err.to_string().contains("topology"), "unexpected refusal: {err}");
}

/// Cache semantics over the wire: a second identical dictionary query
/// answers from cache (no rebuild — the wire-reported build counter and
/// the server-side gauge agree), with the same candidate set; a fresh
/// signature query against the same dictionary also stays a cache hit.
#[test]
fn repeated_dictionary_query_is_served_from_cache() {
    let server = spawn_server("dict");
    let geom = Geometry::bom(12);
    let universe = FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim());
    let program = Executor::new().compile(&resolve("March C-D"), geom);
    let poly = Poly2::from_bits(0b1_0001_1011);
    // Ground truth: the local dictionary build for the same key.
    let local =
        FaultDictionary::build(&universe, &program, poly, Parallelism::Auto).expect("local build");
    let failing = local
        .observations()
        .iter()
        .find(|o| o.signature != local.reference())
        .expect("some fault leaves a failing signature")
        .signature;

    let mut client = Client::connect(server.addr()).expect("connect");
    let lookup = LookupSpec {
        family: "March C-D".to_string(),
        cells: 12,
        width: 1,
        spec: UniverseSpec::paper_claim(),
        signature: failing,
        prefix_bits: 0,
    };
    let first = client.lookup(&lookup).expect("first lookup");
    assert_eq!(first.reference, local.reference());
    let want: Vec<u64> = local.candidates(failing).iter().map(|&i| i as u64).collect();
    assert_eq!(first.candidates, want, "served candidates must equal the local build");
    assert!(!first.candidates.is_empty());

    // The second identical query must not rebuild.
    let second = client.lookup(&lookup).expect("second lookup");
    assert_eq!(second.builds, first.builds, "repeat query must be a cache hit");
    assert_eq!(second.candidates, first.candidates);
    assert_eq!(server.dictionary_builds() as u64, second.builds);

    // A different signature against the same dictionary: still no rebuild.
    let other = client
        .lookup(&LookupSpec { signature: local.reference(), ..lookup.clone() })
        .expect("reference lookup");
    assert_eq!(other.builds, first.builds);
}

/// Malformed and unsatisfiable requests come back as typed server
/// errors, and the connection/session survives refusals that precede a
/// job acceptance.
#[test]
fn bad_requests_are_refused_with_typed_errors() {
    let server = spawn_server("refuse");
    let job = JobSpec {
        family: "No Such March".to_string(),
        cells: 8,
        width: 1,
        spec: UniverseSpec::single_cell(),
        backgrounds: vec![0],
        lane_width: 0,
        deadline_ms: 0,
        segment: 0,
        topology: None,
    };
    let client = Client::connect(server.addr()).expect("connect");
    match client.submit(&job) {
        Err(prt_svc::SvcError::Server { code: 1, message }) => {
            assert!(message.contains("No Such March"), "message names the family: {message}");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    // Unknown lane width, same story.
    let client = Client::connect(server.addr()).expect("connect");
    let bad_width = JobSpec { family: "MATS".into(), lane_width: 128, ..job.clone() };
    assert!(matches!(client.submit(&bad_width), Err(prt_svc::SvcError::Server { code: 1, .. })));
    // And the server still serves a well-formed job afterwards.
    let good = JobSpec { family: "MATS".into(), ..job };
    let (_aggregate, _deltas, done) = drain_checked(server.addr(), &good);
    assert_eq!(done.cause, StopKind::Complete);
}

/// The `lane_width` wire field is kept for old clients and selects
/// nothing: a job sent with 64, 256 or 512 streams the aggregate and the
/// terminal `Done` of the same job sent with 0.
#[test]
fn retained_lane_width_field_selects_nothing() {
    let server = spawn_server("lane-width");
    let job = JobSpec {
        family: "March C-".to_string(),
        cells: 24,
        width: 1,
        spec: UniverseSpec::paper_claim(),
        backgrounds: vec![0],
        lane_width: 0,
        deadline_ms: 0,
        segment: 64,
        topology: None,
    };
    let (want, _, want_done) = drain_checked(server.addr(), &job);
    assert_eq!(want_done.cause, StopKind::Complete);
    assert_eq!(want, batch_aggregate(&job));
    for lane_width in [64, 256, 512] {
        let (aggregate, _, done) =
            drain_checked(server.addr(), &JobSpec { lane_width, ..job.clone() });
        assert_eq!(aggregate, want, "lane_width {lane_width}");
        assert_eq!(done, want_done, "lane_width {lane_width}");
    }
}
