//! `sim_grid`: a simulation-method training grid streamed through the
//! same `run_streaming` driver, without a journal. Its time goes to the
//! transformer graph build and the discrete-event engine; the memo
//! caches run hot; no `FactoredPlan` is built. The only workload where
//! projection accuracy against the simulator is measured.

use std::collections::HashMap;
use std::time::Instant;

use twocs::analysis::overlapped::overlap_pct;
use twocs::analysis::serialized::{sweep_hyper, Method};
use twocs::analysis::sweep::Workload;
use twocs::analysis::{eval_grid_point, FactoredPlan, GridSweep, PointResults};
use twocs::hw::{DeviceSpec, HwEvolution};
use twocs::sim::Engine;
use twocs::store::SweepSpec;
use twocs::transformer::graph_builder::IterationBuilder;
use twocs::transformer::ParallelConfig;

use crate::sweeps::{replay_sweep, run_store_sweep};
use crate::util::{
    cache_stats, clear_memo_caches, cpu_seconds, jittered_ratios, median, note, nproc, peak_rss_kb,
    steal_seconds, Outcome, Rng, Spans,
};

pub const CHUNK: u32 = 64;
/// Points re-evaluated serially, caches cleared, by the oracle.
pub const ORACLE_SAMPLE: usize = 64;
const MIN_SWEEPS: usize = 3;
/// The paper's accuracy bound for the projection method.
const PAPER_BOUND: f64 = 0.15;

pub struct Inputs {
    pub spec: SweepSpec,
    pub sample: Vec<usize>,
}

pub fn inputs(device: &DeviceSpec, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let sweep = GridSweep {
        hs: vec![2048, 4096, 8192, 12_288, 16_384, 24_576, 32_768, 65_536],
        sls: vec![1024, 2048, 4096, 8192],
        tps: vec![2, 4, 8, 16, 32, 64, 128, 256],
        flop_vs_bw: jittered_ratios(&mut rng, 1.0, 0.2, 20),
        method: Method::Simulation,
        workload: Workload::Training,
        ..GridSweep::default()
    };
    let spec = SweepSpec {
        sweep,
        chunk_size: CHUNK,
        device_name: device.name().to_owned(),
        device_fingerprint: device.fingerprint(),
    };
    let sample = rng.sample_indices(spec.point_count(), ORACLE_SAMPLE);
    Inputs { spec, sample }
}

/// Oracle: clear the three memo caches, re-evaluate each sampled point
/// serially, and compare the row it renders with the streamed row byte
/// for byte. Returns the mismatch count.
pub fn check_sample(
    device: &DeviceSpec,
    spec: &SweepSpec,
    rows: &HashMap<usize, String>,
    sample: &[usize],
) -> u64 {
    crate::util::clear_memo_caches();
    let index = spec.index();
    let s = &spec.sweep;
    sample
        .iter()
        .filter(|&&i| {
            let p = index.point(i);
            let value = eval_grid_point(device, p, s.batch, s.method, s.workload);
            let row = GridSweep::row_cells(&p, &Ok(value), index.extended()).join(",");
            rows.get(&i) != Some(&row)
        })
        .count() as u64
}

/// Projection accuracy over every point: `(geomean |proj − sim| / sim,
/// share within the paper's 15%)`, with `sim` the streamed
/// `serialized_pct` column and `proj` the projection method's value at
/// the same point. `None` if a row is missing or unparsable.
pub fn accuracy(
    device: &DeviceSpec,
    spec: &SweepSpec,
    rows: &HashMap<usize, String>,
) -> Option<(f64, f64)> {
    let proj_sweep = GridSweep {
        method: Method::Projection,
        ..spec.sweep.clone()
    };
    let plan = FactoredPlan::build_from_sweep(device, &proj_sweep)?;
    let points: Vec<_> = proj_sweep.index().iter().collect();
    let mut proj = PointResults::with_capacity(points.len());
    plan.eval_batch(&points, &mut proj);
    let (mut log_sum, mut within) = (0.0, 0usize);
    for (i, value) in proj.iter().enumerate() {
        let sim: f64 = rows.get(&i)?.split(',').nth(4)?.parse().ok()?;
        let err = (value.as_ref().ok()?.0 - sim).abs() / sim;
        log_sum += err.ln();
        within += usize::from(err <= PAPER_BOUND);
    }
    let n = proj.len() as f64;
    Some(((log_sum / n).exp(), within as f64 / n))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let device = DeviceSpec::mi210();
    let Inputs { spec, sample } = inputs(&device, seed);
    let points = spec.point_count();
    let jobs = nproc();
    note("points", points);
    note("chunks", spec.chunk_count());
    note("jobs", jobs);
    if trace {
        return traced(&device, &spec, jobs);
    }

    let mut out = Outcome::default();
    let (mut walls, mut setups, mut hashes) = (Vec::new(), Vec::new(), Vec::new());
    let mut rows = HashMap::new();
    // Peak RSS as of the end of the first sweep: the same work in every
    // process, whatever the host's speed lets the rest of the run do.
    let mut max_rss_kb = 0.0;
    let steal0 = steal_seconds();
    let phase = Instant::now();
    while walls.len() < MIN_SWEEPS || phase.elapsed().as_secs_f64() + median(&walls) <= seconds {
        clear_memo_caches();
        let run = run_store_sweep(&device, &spec, None, jobs, &[], true)?;
        out.attempted += points as u64;
        out.failed += run.report.failures as u64;
        out.check(
            run.report.rows == points && run.capture.lines == points + 1,
            || format!("{} rows for {points} points", run.report.rows),
        );
        walls.push(run.wall.as_secs_f64());
        setups.push(run.setup.as_secs_f64());
        hashes.push(run.capture.hash);
        if walls.len() == 1 {
            max_rss_kb = peak_rss_kb();
        }
        rows = run.capture.rows;
    }
    note("steal_s", steal_seconds() - steal0);
    note("sweeps", walls.len());
    note("sweep_wall_s", format!("{walls:?}"));
    note("setup_samples", setups.len());

    out.check(hashes.windows(2).all(|w| w[0] == w[1]), || {
        "sweeps wrote different bytes".to_owned()
    });
    let mismatches = check_sample(&device, &spec, &rows, &sample);
    note("oracle_points", sample.len());
    out.attempted += sample.len() as u64;
    out.failed += mismatches;
    let (err, within) = accuracy(&device, &spec, &rows).ok_or("cannot score accuracy")?;

    out.metric("setup_s", median(&setups), "s");
    let rates: Vec<f64> = walls.iter().map(|w| points as f64 / w).collect();
    out.metric("ops_per_s", median(&rates), "1/s");
    out.metric("max_rss_kb", max_rss_kb, "KiB");
    // Accuracy is a property of the model, not of the run: printed for
    // the record, outside the metrics every workload shares.
    note("proj_err_pct", 100.0 * err);
    note("proj_within_15pct", within);
    Ok(out)
}

/// One point exactly as `eval_grid_point` evaluates a dense training
/// point under the simulation method, with the graph build, the engine
/// run and the slack-ROI profile timed separately.
fn eval_point(
    device: &DeviceSpec,
    p: twocs::analysis::GridPoint,
    batch: u64,
    spans: &mut Spans,
    tasks: &mut usize,
) -> Result<(f64, f64), String> {
    let dev = if p.ratio > 1.0 {
        HwEvolution::flop_vs_bw(p.ratio).apply(device)
    } else {
        device.clone()
    };
    let hyper = sweep_hyper(p.h, p.sl, batch);
    let parallel = ParallelConfig::new().tensor(p.tp);
    let graph = spans.time("transformer.graph_build", || {
        IterationBuilder::new(&hyper, &parallel, &dev)
            .optimizer(false)
            .build_training()
    });
    *tasks += graph.len();
    let report = spans
        .time("sim.engine", || Engine::new().run(&graph))
        .map_err(|e| e.to_string())?;
    let overlap = spans.time("opmodel.overlap", || {
        overlap_pct(&dev, p.h, p.sl * batch, p.tp, 4)
    });
    Ok((100.0 * report.comm_fraction(), overlap))
}

fn traced(device: &DeviceSpec, spec: &SweepSpec, jobs: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let points = spec.point_count() as f64;
    let batch = spec.sweep.batch;

    clear_memo_caches();
    let cpu0 = cpu_seconds();
    let e2e = run_store_sweep(device, spec, None, jobs, &[], false)?;
    let cpu_per_wall = (cpu_seconds() - cpu0) / e2e.wall.as_secs_f64();
    let caches = cache_stats();

    let mut passes = Vec::new();
    for on in [false, true] {
        clear_memo_caches();
        let mut spans = Spans::new(on);
        let mut tasks = 0usize;
        let (wall, capture) = replay_sweep(spec, None, &mut spans, &mut |pts, spans| {
            pts.iter()
                .map(|&p| eval_point(device, p, batch, spans, &mut tasks))
                .collect()
        })?;
        passes.push((wall.as_secs_f64(), spans, capture, tasks));
    }
    out.attempted = 3 * points as u64;
    out.failed = e2e.report.failures as u64;
    for (_, _, capture, _) in &passes {
        out.check(capture.hash == e2e.capture.hash, || {
            "serial replay wrote different bytes from run_streaming".to_owned()
        });
    }
    let untraced_wall = passes[0].0;
    let (wall, spans, capture, tasks) = &passes[1];
    let write_s = capture.write_time.as_secs_f64();

    note("e2e_wall_s", e2e.wall.as_secs_f64());
    note("replay_untraced_wall_s", untraced_wall);
    note("replay_traced_wall_s", wall);
    note(
        "transformer.graph_build_us_per_point",
        1e6 * spans.secs("transformer.graph_build") / points,
    );
    note(
        "sim.host_ns_per_task",
        1e9 * spans.secs("sim.engine") / *tasks as f64,
    );
    out.share("grid.decode", spans.secs("grid.decode"), *wall);
    out.share(
        "transformer.graph_build",
        spans.secs("transformer.graph_build"),
        *wall,
    );
    out.metric(
        "transformer.tasks_per_point",
        *tasks as f64 / points,
        "count",
    );
    out.share("sim.engine", spans.secs("sim.engine"), *wall);
    out.share("opmodel.overlap", spans.secs("opmodel.overlap"), *wall);
    out.share("store.render", spans.secs("store.render") - write_s, *wall);
    out.share("store.write", write_s, *wall);
    out.metric("store.out_bytes", capture.bytes as f64, "B");
    crate::util::cache_metrics(&mut out, caches);
    out.trace_summary(cpu_per_wall, untraced_wall, *wall, spans.covered() / wall);
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
        assert!(a.spec.point_count() > 3000, "several thousand points");
    }

    #[test]
    fn oracle_fires_on_a_changed_row() {
        let device = DeviceSpec::mi210();
        let spec = SweepSpec {
            sweep: GridSweep {
                hs: vec![4096, 16_384],
                sls: vec![2048],
                tps: vec![16, 64],
                flop_vs_bw: vec![1.0, 2.0],
                ..GridSweep::default()
            },
            chunk_size: 2,
            device_name: device.name().to_owned(),
            device_fingerprint: device.fingerprint(),
        };
        let run = run_store_sweep(&device, &spec, None, 2, &[], true).unwrap();
        let mut rows = run.capture.rows;
        let sample: Vec<usize> = (0..spec.point_count()).collect();
        assert_eq!(check_sample(&device, &spec, &rows, &sample), 0);
        let (err, within) = accuracy(&device, &spec, &rows).unwrap();
        assert!(err > 0.0 && (0.0..=1.0).contains(&within));

        let row = rows.get_mut(&1).unwrap();
        *row = row.replacen(',', ";", 1);
        assert_eq!(check_sample(&device, &spec, &rows, &sample), 1);
    }
}
