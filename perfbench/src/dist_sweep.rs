//! `dist_sweep`: an in-process `Coordinator` (default credit window)
//! with two `run_worker` workers over loopback, one evaluation thread
//! each, streaming a mid-size projection grid in small chunks, so lease,
//! wire and merge take a large share. The only workload that touches
//! `twocs-dist`.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use twocs::analysis::serialized::Method;
use twocs::analysis::sweep::Workload;
use twocs::analysis::{eval_chunk, FactoredPlan, GridSweep, PointResults};
use twocs::dist::coordinator::{Coordinator, CoordinatorConfig, DistSummary};
use twocs::dist::worker::{run_worker, WorkerConfig, WorkerReport};
use twocs::hw::DeviceSpec;
use twocs::store::{SweepSpec, SweepStore};

use crate::sweeps::take;
use crate::util::{
    cache_stats, clear_memo_caches, cpu_seconds, highest_supported, jittered_ratios, median, note,
    peak_rss_kb, percentile, steal_seconds, HashWriter, Outcome, Rng, Spans,
};

pub const CHUNK: u32 = 128;
pub const WORKERS: usize = 2;
/// Chunks re-evaluated locally by the oracle.
pub const ORACLE_CHUNKS: usize = 32;
const MIN_SWEEPS: usize = 3;

pub struct Inputs {
    pub spec: SweepSpec,
    pub sample: Vec<u32>,
}

pub fn inputs(device: &DeviceSpec, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let sweep = GridSweep {
        hs: vec![1024, 2048, 4096, 8192, 16_384, 32_768],
        sls: vec![1024, 2048, 4096, 8192],
        tps: vec![4, 8, 16, 32, 64],
        flop_vs_bw: jittered_ratios(&mut rng, 1.0, 0.1, 40),
        experts: vec![1, 8, 16],
        top_ks: vec![1, 2],
        stages: vec![1, 4],
        micro_batches: vec![1, 8],
        sps: vec![1, 2],
        method: Method::Projection,
        workload: Workload::Training,
        ..GridSweep::default()
    };
    let spec = SweepSpec {
        sweep,
        chunk_size: CHUNK,
        device_name: device.name().to_owned(),
        device_fingerprint: device.fingerprint(),
    };
    let sample = rng
        .sample_indices(spec.chunk_count() as usize, ORACLE_CHUNKS)
        .into_iter()
        .map(|c| c as u32)
        .collect();
    Inputs { spec, sample }
}

/// One distributed sweep, from coordinator bind to the finished output.
pub struct DistRun {
    pub wall: Duration,
    /// From coordinator bind until the first merged row reached the output.
    pub setup: Duration,
    pub summary: DistSummary,
    pub workers: Vec<WorkerReport>,
    /// Deliveries per chunk id.
    pub delivered: BTreeMap<u32, u32>,
    /// Values of the sampled chunks, as delivered.
    pub sampled: BTreeMap<u32, PointResults>,
    /// Gaps between consecutive deliveries (timed runs only).
    pub gaps_us: Vec<f64>,
    pub rows: usize,
    pub failures: usize,
    pub hash: u64,
}

pub fn run_dist_sweep(
    device: &DeviceSpec,
    spec: &SweepSpec,
    sample: &[u32],
    spans: &mut Spans,
) -> Result<DistRun, String> {
    let started = Instant::now();
    let coordinator = Coordinator::bind(CoordinatorConfig::default())
        .map_err(|e| format!("coordinator bind: {e}"))?;
    let addr = coordinator.local_addr().to_string();
    let workers: Vec<_> = (0..WORKERS)
        .map(|_| {
            let cfg = WorkerConfig::new(addr.clone(), 1);
            std::thread::spawn(move || run_worker(&cfg))
        })
        .collect();
    let joined = coordinator.wait_for_workers(WORKERS, Duration::from_secs(30));
    let (writer, capture) = HashWriter::new(Vec::new(), false, false);
    let mut store = SweepStore::create(spec.clone(), Box::new(writer), None)?;
    let mut delivered = BTreeMap::new();
    let mut sampled = BTreeMap::new();
    let mut gaps_us = Vec::new();
    let mut last = None;
    let result = coordinator.run_sweep_streaming(
        &spec.sweep,
        device,
        spec.chunk_size as usize,
        &BTreeSet::new(),
        &mut |chunk, values| {
            if spans.on() {
                let now = Instant::now();
                if let Some(prev) = last.replace(now) {
                    gaps_us.push(now.duration_since(prev).as_secs_f64() * 1e6);
                }
            }
            *delivered.entry(chunk).or_insert(0) += 1;
            if sample.binary_search(&chunk).is_ok() {
                sampled.insert(chunk, values.clone());
            }
            spans
                .time("dist.merge", || store.record(chunk, values))
                .map(|_| ())
        },
    );
    let report = result.and_then(|summary| Ok((summary, store.finish()?)));
    // The CSV is complete here; worker teardown is not part of the sweep.
    let wall = started.elapsed();
    coordinator.shutdown();
    let workers: Vec<WorkerReport> = workers
        .into_iter()
        .map(|w| w.join().map_err(|_| "worker thread panicked".to_owned())?)
        .collect::<Result<_, _>>()?;
    let (summary, report) = report?;
    let capture = take(&capture);
    if joined < WORKERS {
        return Err(format!("only {joined} of {WORKERS} workers joined"));
    }
    Ok(DistRun {
        wall,
        setup: capture
            .first_row_at
            .map_or(wall, |at| at.duration_since(started)),
        summary,
        workers,
        delivered,
        sampled,
        gaps_us,
        rows: report.rows,
        failures: report.failures,
        hash: capture.hash,
    })
}

/// Oracle: every chunk delivered exactly once, nothing reassigned, and
/// every sampled chunk bit-identical to a local `eval_chunk`. Returns
/// `(checks made, failures)`.
pub fn check_run(device: &DeviceSpec, spec: &SweepSpec, run: &DistRun) -> (u64, u64) {
    let chunks = spec.chunk_count();
    let once = (0..chunks).all(|c| run.delivered.get(&c) == Some(&1))
        && run.delivered.len() == chunks as usize;
    let index = spec.index();
    let s = &spec.sweep;
    let same = |a: &PointResults, b: &PointResults| {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| match (x, y) {
                (Ok((a0, a1)), Ok((b0, b1))) => {
                    a0.to_bits() == b0.to_bits() && a1.to_bits() == b1.to_bits()
                }
                _ => false,
            })
    };
    let bad_chunks = run
        .sampled
        .iter()
        .filter(|(&c, values)| {
            let points = index.chunk_points(c as usize, spec.chunk_size as usize);
            !same(
                values,
                &eval_chunk(device, &points, s.batch, s.method, s.workload),
            )
        })
        .count() as u64;
    let checks = 2 + run.sampled.len() as u64;
    let failures = u64::from(!once) + u64::from(run.summary.reassigned != 0) + bad_chunks;
    (checks, failures)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let device = DeviceSpec::mi210();
    let Inputs { spec, sample } = inputs(&device, seed);
    let points = spec.point_count();
    note("points", points);
    note("chunks", spec.chunk_count());
    note("workers", WORKERS);
    note("worker_jobs", 1);
    if trace {
        return traced(&device, &spec, &sample);
    }

    let mut out = Outcome::default();
    let (mut walls, mut setups, mut hashes) = (Vec::new(), Vec::new(), Vec::new());
    // Peak RSS as of the end of the first sweep: the same work in every
    // process, whatever the host's speed lets the rest of the run do.
    let mut max_rss_kb = 0.0;
    let steal0 = steal_seconds();
    let phase = Instant::now();
    while walls.len() < MIN_SWEEPS || phase.elapsed().as_secs_f64() + median(&walls) <= seconds {
        clear_memo_caches();
        let run = run_dist_sweep(&device, &spec, &sample, &mut Spans::new(false))?;
        out.attempted += points as u64;
        out.failed += run.failures as u64;
        out.check(run.rows == points, || {
            format!("{} rows for {points} points", run.rows)
        });
        let (checks, failures) = check_run(&device, &spec, &run);
        out.attempted += checks;
        out.failed += failures;
        walls.push(run.wall.as_secs_f64());
        setups.push(run.setup.as_secs_f64());
        hashes.push(run.hash);
        if walls.len() == 1 {
            max_rss_kb = peak_rss_kb();
        }
    }
    note("steal_s", steal_seconds() - steal0);
    note("sweeps", walls.len());
    note("sweep_wall_s", format!("{walls:?}"));
    note("setup_samples", setups.len());
    out.check(hashes.windows(2).all(|w| w[0] == w[1]), || {
        "sweeps wrote different bytes".to_owned()
    });

    out.metric("setup_s", median(&setups), "s");
    let rates: Vec<f64> = walls.iter().map(|w| points as f64 / w).collect();
    out.metric("ops_per_s", median(&rates), "1/s");
    out.metric("max_rss_kb", max_rss_kb, "KiB");
    Ok(out)
}

/// The traced run: one untimed and one timed distributed sweep (merge
/// time and delivery gaps measured in `on_chunk`), plus a local serial
/// replay of a worker's plan build, decode and `eval_batch` calls.
fn traced(device: &DeviceSpec, spec: &SweepSpec, sample: &[u32]) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let points = spec.point_count() as f64;
    let builds = twocs::obs::metrics::global().counter("dist.plan_cache_builds");

    clear_memo_caches();
    let cpu0 = cpu_seconds();
    let untraced = run_dist_sweep(device, spec, sample, &mut Spans::new(false))?;
    let cpu_per_wall = (cpu_seconds() - cpu0) / untraced.wall.as_secs_f64();
    let caches = cache_stats();

    clear_memo_caches();
    let builds0 = builds.get();
    let mut spans = Spans::new(true);
    let run = run_dist_sweep(device, spec, sample, &mut spans)?;
    let plan_builds = builds.get() - builds0;
    for r in [&untraced, &run] {
        let (checks, failures) = check_run(device, spec, r);
        out.attempted += checks + points as u64;
        out.failed += failures + r.failures as u64;
    }

    let mut local = Spans::new(true);
    let replay = Instant::now();
    let plan = local
        .time("planner.build", || {
            FactoredPlan::build_from_sweep(device, &spec.sweep)
        })
        .ok_or("projection grid did not factor")?;
    let index = spec.index();
    for chunk in 0..spec.chunk_count() as usize {
        let pts = local.time("grid.decode", || index.chunk_points(chunk, CHUNK as usize));
        local.time("planner.eval", || {
            let mut values = PointResults::with_capacity(pts.len());
            plan.eval_batch(&pts, &mut values);
            values
        });
    }
    let replay_wall = replay.elapsed().as_secs_f64();

    let wall = run.wall.as_secs_f64();
    let busy: f64 = run.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
    let idle: f64 = run.workers.iter().map(|w| w.idle.as_secs_f64()).sum();
    let mut gaps = run.gaps_us.clone();
    gaps.sort_by(f64::total_cmp);
    let (gap_p50, _) = percentile(&gaps, 0.5);
    let (tail_pct, tail) = highest_supported(&gaps, 10).ok_or("too few chunk gaps")?;

    note("untraced_wall_s", untraced.wall.as_secs_f64());
    note("traced_wall_s", wall);
    note("chunk_gap_samples", gaps.len());
    note("dist.chunk_gap_us.tail_percentile", tail_pct);
    note("local_replay_wall_s", replay_wall);
    note("dist.chunk_gap_us.p50", gap_p50);
    note("dist.chunk_gap_us.tail", tail);
    note("dist.reassigned", run.summary.reassigned);
    out.share("dist.merge", spans.secs("dist.merge"), wall);
    out.metric(
        "dist.wire_bytes_per_point",
        (run.summary.bytes_tx + run.summary.bytes_rx) as f64 / points,
        "B",
    );
    out.metric("dist.worker_idle_share", idle / (idle + busy), "share");
    out.metric("dist.plan_builds", plan_builds as f64, "count");
    // A worker's own calls, replayed locally: shares of that replay.
    out.share("planner.build", local.secs("planner.build"), replay_wall);
    out.share("planner.eval", local.secs("planner.eval"), replay_wall);
    out.share("grid.decode", local.secs("grid.decode"), replay_wall);
    crate::util::cache_metrics(&mut out, caches);
    out.trace_summary(
        cpu_per_wall,
        untraced.wall.as_secs_f64(),
        wall,
        (busy + idle + spans.secs("dist.merge")) / (wall * (WORKERS + 1) as f64),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_picks_only_the_ratios() {
        let device = DeviceSpec::mi210();
        let (a, b, c) = (inputs(&device, 7), inputs(&device, 7), inputs(&device, 8));
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.sample, b.sample);
        assert_ne!(a.spec.sweep.flop_vs_bw, c.spec.sweep.flop_vs_bw);
        assert_eq!(a.spec.point_count(), c.spec.point_count());
        assert_eq!(a.spec.chunk_count(), c.spec.chunk_count());
    }

    #[test]
    fn oracle_fires_on_a_flipped_value_a_duplicate_or_a_reassignment() {
        let device = DeviceSpec::mi210();
        let spec = SweepSpec {
            sweep: GridSweep {
                hs: vec![4096, 8192],
                sls: vec![2048],
                tps: vec![8, 16],
                flop_vs_bw: vec![1.0, 2.5],
                method: Method::Projection,
                ..GridSweep::default()
            },
            chunk_size: 2,
            device_name: device.name().to_owned(),
            device_fingerprint: device.fingerprint(),
        };
        let sample: Vec<u32> = (0..spec.chunk_count()).collect();
        let mut run = run_dist_sweep(&device, &spec, &sample, &mut Spans::new(false)).unwrap();
        assert_eq!(check_run(&device, &spec, &run).1, 0);

        let value = &mut run.sampled.get_mut(&1).unwrap()[0];
        let (s, o) = *value.as_ref().unwrap();
        *value = Ok((s, f64::from_bits(o.to_bits() ^ 1)));
        assert_eq!(check_run(&device, &spec, &run).1, 1);
        run.sampled.get_mut(&1).unwrap()[0] = Ok((s, o));

        *run.delivered.get_mut(&0).unwrap() = 2;
        assert_eq!(check_run(&device, &spec, &run).1, 1);
        *run.delivered.get_mut(&0).unwrap() = 1;

        run.summary.reassigned = 1;
        assert_eq!(check_run(&device, &spec, &run).1, 1);
    }
}
