//! Chaos/resilience property suite: every injected failure — a worker
//! killed mid-chunk, a panicking lane batch, a cancellation firing at an
//! arbitrary point, a truncated or bit-flipped checkpoint file — must end
//! in either a **typed error** or a **correct resume**, never a wrong
//! coverage number. These are the acceptance tests of the resilient
//! campaign runtime: a campaign killed mid-run and resumed from its
//! checkpoint produces a report bit-identical to an uninterrupted run, at
//! any thread count.

mod common;

use std::sync::Arc;

use common::{observe_lanes, observe_one, scalar_observations, temp_ckpt};
use proptest::prelude::*;
use prt_sim::chaos::{self, ChaosPlan};
use prt_sim::checkpoint;
use prt_suite::prelude::*;

/// The full mixed universe: every modelled fault family.
fn universe(n: usize) -> FaultUniverse {
    FaultUniverse::enumerate(Geometry::bom(n), &UniverseSpec::full())
}

/// An interpreted (closure) runner — exercises the scalar campaign path.
fn toy_runner(ram: &mut Ram, _bg: u64) -> bool {
    let n = ram.geometry().cells();
    let mask = ram.geometry().data_mask();
    for a in 0..n {
        ram.write(a, 0);
    }
    for a in 0..n {
        if ram.read(a) != 0 {
            return true;
        }
        ram.write(a, mask);
    }
    (0..n).any(|a| {
        let got = ram.read(a) != mask;
        ram.write(a, 0);
        got
    })
}

/// A compiled March program — exercises the lane-batched campaign path.
fn march_program(geom: Geometry) -> TestProgram {
    Executor::new().compile(&march_library::march_c_minus(), geom)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Snapshot → restore returns the exact verdict prefix and cursor for
    /// any table content, prefix length and fingerprint.
    #[test]
    fn checkpoint_round_trip(
        verdicts in prop::collection::vec(any::<bool>(), 0..300),
        extra in 0usize..50,
        fingerprint in any::<u64>(),
    ) {
        let total = verdicts.len() + extra;
        let path = temp_ckpt("roundtrip");
        checkpoint::save_records(&path, fingerprint, total, &verdicts).unwrap();
        let loaded: Vec<bool> =
            checkpoint::load_records(&path, fingerprint, total).unwrap().unwrap();
        prop_assert_eq!(&loaded, &verdicts);
        prop_assert_eq!(checkpoint::peek_fingerprint(&path).unwrap(), fingerprint);
        // A cold start stays a cold start: the wrong-fingerprint and
        // wrong-universe loads are typed refusals, not empty resumes.
        let foreign: Result<Option<Vec<bool>>, _> =
            checkpoint::load_records(&path, fingerprint ^ 1, total);
        prop_assert!(matches!(foreign, Err(CheckpointError::FingerprintMismatch { .. })));
        let resized: Result<Option<Vec<bool>>, _> =
            checkpoint::load_records(&path, fingerprint, total + 1);
        prop_assert!(matches!(resized, Err(CheckpointError::Corrupt { .. })));
        let _ = std::fs::remove_file(&path);
    }

    /// Any strict truncation or single bit flip of a checkpoint file is
    /// rejected as corruption — never silently resumed from.
    #[test]
    fn damaged_checkpoint_is_rejected(
        verdicts in prop::collection::vec(any::<bool>(), 1..200),
        damage in any::<u64>(),
        truncate in any::<bool>(),
    ) {
        let total = verdicts.len();
        let path = temp_ckpt("damage");
        checkpoint::save_records(&path, 0xABCD, total, &verdicts).unwrap();
        let size = std::fs::metadata(&path).unwrap().len() as usize;
        if truncate {
            chaos::truncate_file(&path, damage as usize % size).unwrap();
        } else {
            chaos::flip_bit(&path, damage as usize % (size * 8)).unwrap();
        }
        let loaded: Result<Option<Vec<bool>>, _> =
            checkpoint::load_records(&path, 0xABCD, total);
        prop_assert!(
            matches!(loaded, Err(CheckpointError::Corrupt { .. })),
            "damaged checkpoint must be Corrupt, got {:?}",
            loaded
        );
        let _ = std::fs::remove_file(&path);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// THE acceptance property: a campaign killed mid-run (worker panic at
    /// an arbitrary trial) surfaces a typed `WorkerPanic` after saving its
    /// progress, and a resumed campaign — at a different thread count —
    /// produces a report bit-identical to an uninterrupted run.
    #[test]
    fn killed_campaign_resumes_bit_identically(
        n in 6usize..10,
        kill_pick in any::<u64>(),
        every in 5usize..60,
        threads in 1usize..5,
    ) {
        let u = universe(n);
        let baseline = Campaign::new(&u, toy_runner).with_name("resilient").run();
        let kill_at = kill_pick as usize % u.len();
        let path = temp_ckpt("kill");
        let plan = Arc::new(ChaosPlan::new().panic_on_trial(kill_at));
        let killed = Campaign::new(&u, toy_runner)
            .with_name("resilient")
            .with_parallelism(Parallelism::Threads(threads))
            .with_checkpoint(&path, every)
            .with_chaos(plan)
            .try_run();
        match killed {
            Err(CampaignError::WorkerPanic { ref payload, .. }) => {
                prop_assert!(payload.contains("chaos: injected panic"), "payload: {}", payload);
            }
            ref other => prop_assert!(false, "expected WorkerPanic, got {:?}", other),
        }
        let resumed = Campaign::new(&u, toy_runner)
            .with_name("resilient")
            .with_parallelism(Parallelism::Threads(threads % 4 + 1))
            .with_checkpoint(&path, every)
            .run();
        prop_assert_eq!(&baseline, &resumed);
        let _ = std::fs::remove_file(&path);
    }

    /// A cancellation firing at an arbitrary point yields an explicitly
    /// partial report (never a silently wrong total), and a fresh campaign
    /// resumes from the checkpoint to the exact uninterrupted report.
    #[test]
    fn cancelled_campaign_resumes_to_full_report(
        n in 6usize..9,
        after in any::<u64>(),
        every in 5usize..40,
    ) {
        let u = universe(n);
        let baseline = Campaign::new(&u, toy_runner).with_name("resilient").run();
        let token = CancelToken::new();
        let plan = Arc::new(ChaosPlan::new().cancel_after(after as usize % u.len() + 1, &token));
        let path = temp_ckpt("cancel");
        let stopped = Campaign::new(&u, toy_runner)
            .with_name("resilient")
            .with_parallelism(Parallelism::Sequential)
            .with_cancel(&token)
            .with_checkpoint(&path, every)
            .with_chaos(plan)
            .try_run()
            .unwrap();
        if let Some(partial) = stopped.partial() {
            prop_assert_eq!(partial.cause, StopCause::Cancelled);
            prop_assert!(partial.evaluated < u.len());
            prop_assert_eq!(partial.total, u.len());
            // The partial rows tally exactly the evaluated prefix.
            let tallied: usize = stopped.rows().iter().map(|r| r.total).sum();
            prop_assert_eq!(tallied, partial.evaluated);
        }
        let resumed = Campaign::new(&u, toy_runner)
            .with_name("resilient")
            .with_checkpoint(&path, every)
            .run();
        prop_assert_eq!(&baseline, &resumed);
        let _ = std::fs::remove_file(&path);
    }

    /// A lane batch killed mid-interpreter-pass degrades to the scalar
    /// oracle: the campaign completes with exact verdicts and a nonzero
    /// degradation counter — never a typed error, never wrong coverage.
    #[test]
    fn killed_batch_degrades_to_exact_verdicts(
        n in 6usize..10,
        pick in any::<u64>(),
        threads in 1usize..5,
    ) {
        let u = universe(n);
        let prog = march_program(u.geometry());
        let clean = Campaign::new(&u, &prog).with_name("resilient").run();
        // Chaos keys a batch by its schedule position: campaign batches
        // are 512-lane chunks, so batch b starts at b·512.
        let starts: Vec<usize> = (0..u.len()).step_by(LaneRam::<8>::LANES).collect();
        let target = starts[pick as usize % starts.len()];
        // The planned default (the full pass on this dense universe),
        // then the forced sliced engine over locality-sorted batches.
        for sliced in [false, true] {
            let plan = Arc::new(ChaosPlan::new().panic_on_batch(target));
            let mut c = Campaign::new(&u, &prog)
                .with_name("resilient")
                .with_parallelism(Parallelism::Threads(threads))
                .with_chaos(plan);
            if sliced {
                c = c.with_slicing(true);
            }
            let degraded = c.run();
            prop_assert!(degraded.degraded_batches() >= 1, "batch kill must be counted");
            prop_assert!(degraded.partial().is_none(), "degradation is not a partial run");
            prop_assert_eq!(clean.rows(), degraded.rows(), "forced sliced {}", sliced);
        }
    }

    /// The measurement terminal under every dictionary build degrades the
    /// same way: a killed lane batch retries on the scalar trial, the
    /// observations stay exact and the degradation is counted — on the
    /// planned engine and the forced sliced one.
    #[test]
    fn killed_measurement_batch_degrades_to_exact_observations(
        n in 6usize..10,
        pick in any::<u64>(),
        threads in 1usize..5,
    ) {
        let u = universe(n);
        let program = Executor::new().compile(&march_library::march_diag(), u.geometry());
        let poly = Poly2::from_bits(0b1_0001_1011);
        let exact = scalar_observations(&u, &program, poly);
        let collector = SignatureCollector::new(&program, poly).expect("collector");
        let (lanes, one) = (observe_lanes(&collector, &program), observe_one(&collector, &program));
        let starts: Vec<usize> = (0..u.len()).step_by(LaneRam::<8>::LANES).collect();
        let target = starts[pick as usize % starts.len()];
        for sliced in [false, true] {
            let plan = Arc::new(ChaosPlan::new().panic_on_batch(target));
            let mut c = Campaign::new(&u, &program)
                .with_parallelism(Parallelism::Threads(threads))
                .with_chaos(plan);
            if sliced {
                c = c.with_slicing(true);
            }
            let (observations, degraded) =
                c.try_measure(|| 0, &lanes, &one).expect("a killed batch degrades");
            prop_assert!(degraded >= 1, "batch kill must be counted (forced sliced {})", sliced);
            prop_assert_eq!(&exact, &observations, "forced sliced {}", sliced);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The dictionary adoption of the checkpoint hook: a build interrupted
    /// at ANY prefix of its universe resumes to a dictionary bit-identical
    /// to the uninterrupted build.
    #[test]
    fn dictionary_resumes_from_any_prefix(cut_permille in 0usize..1000) {
        let geom = Geometry::bom(8);
        let u = FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim());
        let program = Executor::new().compile(&march_library::march_diag(), geom);
        let poly = Poly2::from_bits(0b1_0001_1011);
        let path = temp_ckpt("dict");
        let full = FaultDictionary::build_with_checkpoint(
            &u, &program, poly, Parallelism::Auto, &path, 40,
        )
        .unwrap();
        // Rewind the (completed) checkpoint to an arbitrary prefix —
        // exactly the file a killed build would have left behind.
        let fp = checkpoint::peek_fingerprint(&path).unwrap();
        let saved: Vec<Observation> =
            checkpoint::load_records(&path, fp, u.len()).unwrap().unwrap();
        let cut = saved.len() * cut_permille / 1000;
        checkpoint::save_records(&path, fp, u.len(), &saved[..cut]).unwrap();
        let resumed = FaultDictionary::build_with_checkpoint(
            &u, &program, poly, Parallelism::Threads(3), &path, 40,
        )
        .unwrap();
        prop_assert_eq!(full.observations(), resumed.observations());
        prop_assert_eq!(full.stats(), resumed.stats());
        let _ = std::fs::remove_file(&path);
    }
}

/// SERVICE CHAOS: a client killed mid-stream (connection dropped after
/// the first delta) must cancel its own job — the disconnect watchdog
/// fires the job's `CancelToken` — and leave the server fully
/// serviceable: a fresh client's job still completes, and the active-job
/// gauge drains back to zero. A dead client never pins the worker pool.
#[test]
fn client_killed_mid_stream_leaves_server_serviceable() {
    use prt_svc::{Client, Event, JobSpec, Server, ServerConfig, StopKind};

    let server = Server::spawn(ServerConfig {
        // Tiny segments so the victim's stream has many deltas in flight
        // and the cancellation provably lands mid-job.
        segment: 8,
        ..ServerConfig::default()
    })
    .expect("spawn service");
    let addr = server.addr();
    let job = JobSpec {
        family: "March C-".to_string(),
        cells: 48,
        width: 1,
        spec: UniverseSpec::full(),
        backgrounds: vec![0],
        lane_width: 0,
        deadline_ms: 0,
        segment: 0,
        topology: None,
    };

    // The victim: read exactly one delta, then drop the connection.
    {
        let client = Client::connect(addr).expect("victim connect");
        let mut stream = client.submit(&job).expect("victim submit");
        let first = stream.next_event().expect("victim first event");
        assert!(matches!(first, Some(Event::Delta(_))), "expected a first delta, got {first:?}");
        // `stream` drops here: the socket closes mid-job.
    }

    // The server must stay serviceable: a fresh client's job completes.
    let client = Client::connect(addr).expect("fresh connect");
    let stream = client.submit(&job).expect("fresh submit");
    let total = stream.total();
    let (deltas, done) = stream.drain().expect("fresh stream");
    assert_eq!(done.cause, StopKind::Complete);
    assert_eq!(done.evaluated, total);
    assert_eq!(deltas.last().expect("at least one delta").end, total);

    // The victim's cancellation lands and the job gauge drains to zero.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while server.active_jobs() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "abandoned job still active after 30s (gauge = {})",
            server.active_jobs()
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// Deadlines produce explicitly partial reports, and `try_detections`
/// refuses to return a partial verdict vector (typed error instead) —
/// deterministic corner, no property sweep needed.
#[test]
fn deadline_yields_marked_partial_report() {
    let u = universe(8);
    let report = Campaign::new(&u, toy_runner)
        .with_deadline(std::time::Duration::ZERO)
        .try_run()
        .expect("a deadline stop is not an error for try_run");
    let partial = report.partial().expect("must be marked partial");
    assert_eq!(partial.cause, StopCause::DeadlineExceeded);
    assert!(!report.complete());
    match Campaign::new(&u, toy_runner).with_deadline(std::time::Duration::ZERO).try_detections() {
        Err(CampaignError::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    };
}
