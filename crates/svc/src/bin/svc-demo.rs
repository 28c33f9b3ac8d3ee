//! Demo/smoke client for a running `prt-svc` server: streams N
//! concurrent campaign jobs, verifies each delta stream is a monotone
//! tiling of the universe, then queries the fault dictionary twice and
//! asserts the second query is a cache hit. Exits nonzero on any
//! violation — CI runs this as the service smoke step.
//!
//! ```text
//! svc-demo [ADDR] [JOBS]   # defaults 127.0.0.1:7177, 2 jobs
//! ```

use std::thread;
use std::time::Duration;

use prt_ram::UniverseSpec;
use prt_svc::cli::{arg_or, die};
use prt_svc::{Client, JobSpec, LookupSpec, StopKind};

/// Streams one job and checks the delta invariants; returns the number
/// of deltas received.
fn verify_stream(addr: &str, job: &JobSpec) -> Result<usize, String> {
    let client = Client::connect_retry(addr, Duration::from_secs(10))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let stream = client.submit(job).map_err(|e| format!("submit: {e}"))?;
    let total = stream.total();
    if total == 0 {
        return Err("server accepted an empty universe".to_string());
    }
    let (deltas, done) = stream.drain().map_err(|e| format!("stream: {e}"))?;
    let mut cursor = 0u64;
    let mut counted = 0u64;
    for (i, delta) in deltas.iter().enumerate() {
        if delta.seq != i as u64 {
            return Err(format!("delta {i} has sequence {}", delta.seq));
        }
        if delta.start != cursor || delta.end <= delta.start {
            return Err(format!(
                "delta {i} [{}, {}) breaks the tiling at cursor {cursor}",
                delta.start, delta.end
            ));
        }
        cursor = delta.end;
        let rows: u64 = delta.rows.iter().map(|r| r.total).sum();
        if rows != delta.end - delta.start {
            return Err(format!(
                "delta {i} rows sum to {rows}, segment wants {}",
                delta.end - delta.start
            ));
        }
        counted += rows;
    }
    if done.cause != StopKind::Complete {
        return Err(format!("job stopped early: {:?}", done.cause));
    }
    if done.evaluated != total || cursor != total || counted != total {
        return Err(format!(
            "aggregate mismatch: evaluated {} / tiled {cursor} / counted {counted} of {total}",
            done.evaluated
        ));
    }
    Ok(deltas.len())
}

fn main() {
    let addr: String = arg_or(1, "127.0.0.1:7177".to_string(), "server address");
    let jobs: usize = arg_or(2, 2, "concurrent jobs");
    if jobs == 0 {
        die("need at least one job");
    }

    let job = JobSpec {
        family: "March C-".to_string(),
        cells: 64,
        width: 1,
        spec: UniverseSpec::full(),
        backgrounds: vec![0],
        lane_width: 0,
        deadline_ms: 0,
        segment: 1024,
        topology: None,
    };

    // N clients stream the same job concurrently — the server must
    // interleave them without conflating their streams.
    let streams: Vec<_> = (0..jobs)
        .map(|j| {
            let addr = addr.clone();
            let job = job.clone();
            thread::spawn(move || verify_stream(&addr, &job).map_err(|e| format!("job {j}: {e}")))
        })
        .collect();
    let mut delta_count = 0;
    for handle in streams {
        match handle.join() {
            Ok(Ok(n)) => delta_count += n,
            Ok(Err(e)) => die(e),
            Err(_) => die("job thread panicked"),
        }
    }

    // Dictionary: the second identical query must be served from cache.
    let lookup = LookupSpec {
        family: "MATS+".to_string(),
        cells: 16,
        width: 1,
        spec: UniverseSpec::single_cell(),
        signature: 0,
        prefix_bits: 0,
    };
    let mut client = Client::connect_retry(&addr, Duration::from_secs(10))
        .unwrap_or_else(|e| die(format!("connect {addr}: {e}")));
    let first = client.lookup(&lookup).unwrap_or_else(|e| die(format!("lookup: {e}")));
    let second = client.lookup(&lookup).unwrap_or_else(|e| die(format!("lookup: {e}")));
    if second.builds != first.builds {
        die(format!(
            "repeat dictionary query rebuilt: builds {} -> {}",
            first.builds, second.builds
        ));
    }
    if second.reference != first.reference {
        die("repeat dictionary query changed the reference signature");
    }

    println!(
        "svc-demo: {jobs} concurrent streams complete ({delta_count} deltas); \
         dictionary cached (builds={})",
        second.builds
    );
}
