//! `proj_stream`: the 1,024,000-point projection grid of CI's
//! streaming max-RSS gate, journaled through `run_streaming` into a
//! hashing writer. Loads the planner, the grid index and the store.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use twocs::analysis::serialized::Method;
use twocs::analysis::sweep::Workload;
use twocs::analysis::{eval_grid_point, FactoredPlan, GridSweep, PointResults};
use twocs::hw::DeviceSpec;
use twocs::store::{Journal, SweepSpec};

use crate::sweeps::{replay_sweep, run_store_sweep};
use crate::util::{
    cache_stats, clear_memo_caches, cpu_seconds, jittered_ratios, median, note, nproc, peak_rss_kb,
    steal_seconds, Outcome, Rng, Scratch, Spans,
};

/// CI's `--chunk 4096`.
pub const CHUNK: u32 = 4096;
/// Rows re-derived by the naive oracle after the timed phase.
pub const ORACLE_SAMPLE: usize = 1000;
/// Sweeps per process at the least.
const MIN_SWEEPS: usize = 2;

/// The generated inputs: the grid (the seed picks only its 200
/// flop-vs-bw values) and the rows the oracle re-derives.
pub struct Inputs {
    pub spec: SweepSpec,
    pub sample: Vec<usize>,
}

pub fn inputs(device: &DeviceSpec, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let sweep = GridSweep {
        hs: vec![1024, 2048, 4096, 8192, 16_384, 32_768],
        sls: vec![1024, 2048, 4096, 8192],
        tps: vec![4, 8, 16, 32, 64],
        flop_vs_bw: jittered_ratios(&mut rng, 0.05, 0.05, 200),
        experts: vec![8, 16, 32, 64],
        top_ks: vec![1, 2],
        stages: vec![1, 4],
        micro_batches: vec![1, 8],
        sps: vec![1, 2],
        batch: 1,
        method: Method::Projection,
        workload: Workload::Training,
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

/// Oracle: each sampled row's journaled values must equal naive
/// `eval_grid_point` bit for bit, and its rendered CSV row must equal
/// the row rendered from those values. Returns the mismatch count.
pub fn check_rows(
    device: &DeviceSpec,
    spec: &SweepSpec,
    chunks: &BTreeMap<u32, PointResults>,
    rows: &HashMap<usize, String>,
    sample: &[usize],
) -> u64 {
    let index = spec.index();
    let s = &spec.sweep;
    let chunk = spec.chunk_size as usize;
    let extended = index.extended();
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
    sample
        .iter()
        .filter(|&&i| {
            let p = index.point(i);
            let want = eval_grid_point(device, p, s.batch, s.method, s.workload);
            let got = chunks
                .get(&((i / chunk) as u32))
                .and_then(|values| values.get(i % chunk));
            let bits_ok = matches!(got, Some(Ok((a, b))) if same(*a, want.0) && same(*b, want.1));
            let row = GridSweep::row_cells(&p, &Ok(want), extended).join(",");
            !(bits_ok && rows.get(&i) == Some(&row))
        })
        .count() as u64
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let device = DeviceSpec::mi210();
    let Inputs { spec, sample } = inputs(&device, seed);
    let scratch = Scratch::new("proj_stream").map_err(|e| format!("scratch dir: {e}"))?;
    let points = spec.point_count();
    let chunks = spec.chunk_count();
    let jobs = nproc();
    note("points", points);
    note("chunks", chunks);
    note("jobs", jobs);
    if trace {
        return traced(&device, &spec, &scratch, jobs);
    }

    let mut out = Outcome::default();
    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let mut hashes = Vec::new();
    let mut last = None;
    // Peak RSS as of the end of the first sweep: the same work in every
    // process, whatever the host's speed lets the rest of the run do.
    let mut max_rss_kb = 0.0;
    let steal0 = steal_seconds();
    let phase = Instant::now();
    while walls.len() < MIN_SWEEPS || phase.elapsed().as_secs_f64() + median(&walls) <= seconds {
        clear_memo_caches();
        let path = scratch.path(&format!("sweep{}.journal", walls.len()));
        let run = run_store_sweep(&device, &spec, Some(&path), jobs, &sample, false)?;
        out.attempted += points as u64;
        out.failed += run.report.failures as u64;
        out.check(run.evaluated == u64::from(chunks), || {
            format!("evaluated {} of {chunks} chunks", run.evaluated)
        });
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
        if let Some((old, _)) = last.replace((path, run.capture.rows)) {
            let _ = std::fs::remove_file(old);
        }
    }
    note("steal_s", steal_seconds() - steal0);
    note("sweeps", walls.len());
    note("sweep_wall_s", format!("{walls:?}"));
    note("setup_samples", setups.len());

    out.check(hashes.windows(2).all(|w| w[0] == w[1]), || {
        "sweeps wrote different bytes".to_owned()
    });
    let (path, rows) = last.expect("at least one sweep ran");
    let (_journal, journaled, replay) = Journal::open(&path)?;
    out.check(journaled.fingerprint() == spec.fingerprint(), || {
        "journal replays a different spec".to_owned()
    });
    out.check(
        replay.chunks.len() == chunks as usize && replay.discarded_bytes == 0,
        || {
            format!(
                "journal replayed {} of {chunks} chunks ({} bytes discarded)",
                replay.chunks.len(),
                replay.discarded_bytes
            )
        },
    );
    let mismatches = check_rows(&device, &spec, &replay.chunks, &rows, &sample);
    note("oracle_rows", sample.len());
    out.attempted += sample.len() as u64;
    out.failed += mismatches;

    out.metric("setup_s", median(&setups), "s");
    let rates: Vec<f64> = walls.iter().map(|w| points as f64 / w).collect();
    out.metric("ops_per_s", median(&rates), "1/s");
    out.metric("max_rss_kb", max_rss_kb, "KiB");
    Ok(out)
}

/// The traced run: one end-to-end sweep (caches and CPU use), then the
/// serial replay twice — untimed and timed — for per-layer times and
/// the tracing overhead.
fn traced(
    device: &DeviceSpec,
    spec: &SweepSpec,
    scratch: &Scratch,
    jobs: usize,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let points = spec.point_count() as f64;
    let fsyncs = twocs::obs::metrics::global().counter("store.journal.fsyncs");

    clear_memo_caches();
    let cpu0 = cpu_seconds();
    let e2e = run_store_sweep(
        device,
        spec,
        Some(&scratch.path("e2e.journal")),
        jobs,
        &[],
        false,
    )?;
    let cpu_per_wall = (cpu_seconds() - cpu0) / e2e.wall.as_secs_f64();
    let caches = cache_stats();

    let mut passes = Vec::new();
    for on in [false, true] {
        clear_memo_caches();
        let path = scratch.path(&format!("replay-{on}.journal"));
        let fsyncs0 = fsyncs.get();
        let mut spans = Spans::new(on);
        let started = Instant::now();
        let plan = spans
            .time("planner.build", || {
                FactoredPlan::build_from_sweep(device, &spec.sweep)
            })
            .ok_or("projection grid did not factor")?;
        let (_, capture) = replay_sweep(spec, Some(&path), &mut spans, &mut |pts, spans| {
            spans.time("planner.eval", || {
                let mut values = PointResults::with_capacity(pts.len());
                plan.eval_batch(pts, &mut values);
                values
            })
        })?;
        let wall = started.elapsed().as_secs_f64();
        let journal_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        passes.push((
            wall,
            spans,
            capture,
            fsyncs.get() - fsyncs0,
            journal_bytes,
            (plan.shapes() * plan.ratios() * (plan.tps() + plan.axes())) as f64,
        ));
    }
    out.attempted = 3 * points as u64;
    out.failed = e2e.report.failures as u64;
    for (_, _, capture, ..) in &passes {
        out.check(capture.hash == e2e.capture.hash, || {
            "serial replay wrote different bytes from run_streaming".to_owned()
        });
    }
    let (untraced_wall, ..) = passes[0];
    let (wall, spans, capture, fsync_count, journal_bytes, cells) = &passes[1];
    let write_s = capture.write_time.as_secs_f64();

    note("e2e_wall_s", e2e.wall.as_secs_f64());
    note("replay_untraced_wall_s", untraced_wall);
    note("replay_traced_wall_s", wall);
    note(
        "planner.build_share_of_e2e",
        spans.secs("planner.build") / e2e.wall.as_secs_f64(),
    );
    out.share("planner.build", spans.secs("planner.build"), *wall);
    out.share("planner.eval", spans.secs("planner.eval"), *wall);
    out.metric("planner.cells", *cells, "count");
    out.share("grid.decode", spans.secs("grid.decode"), *wall);
    out.share("store.journal", spans.secs("store.journal"), *wall);
    out.metric("store.fsyncs", *fsync_count as f64, "count");
    out.metric("store.journal_bytes", *journal_bytes as f64, "B");
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
    use crate::util::Scratch;

    #[test]
    fn seed_picks_only_the_ratios() {
        let device = DeviceSpec::mi210();
        let (a, b, c) = (inputs(&device, 7), inputs(&device, 7), inputs(&device, 8));
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.sample, b.sample);
        assert_ne!(a.spec.sweep.flop_vs_bw, c.spec.sweep.flop_vs_bw);
        assert_eq!(a.spec.point_count(), 1_024_000);
        assert_eq!(c.spec.point_count(), 1_024_000);
        assert_eq!(a.spec.chunk_count(), c.spec.chunk_count());
        assert_eq!(a.sample.len(), ORACLE_SAMPLE);
    }

    #[test]
    fn oracle_fires_on_a_flipped_value_or_row() {
        let device = DeviceSpec::mi210();
        let spec = SweepSpec {
            sweep: GridSweep {
                hs: vec![4096, 8192],
                sls: vec![2048],
                tps: vec![8, 16],
                flop_vs_bw: vec![1.0, 2.5],
                experts: vec![1, 8],
                top_ks: vec![1, 2],
                method: Method::Projection,
                ..GridSweep::default()
            },
            chunk_size: 4,
            device_name: device.name().to_owned(),
            device_fingerprint: device.fingerprint(),
        };
        let sample: Vec<usize> = (0..spec.point_count()).step_by(3).collect();
        let scratch = Scratch::new("proj_stream-test").unwrap();
        let path = scratch.path("t.journal");
        let run = run_store_sweep(&device, &spec, Some(&path), 2, &sample, false).unwrap();
        let (_, _, replay) = Journal::open(&path).unwrap();
        let mut chunks = replay.chunks;
        let mut rows = run.capture.rows;
        assert_eq!(check_rows(&device, &spec, &chunks, &rows, &sample), 0);

        let i = sample[1];
        let value = &mut chunks.get_mut(&((i / 4) as u32)).unwrap()[i % 4];
        let (s, o) = *value.as_ref().unwrap();
        *value = Ok((f64::from_bits(s.to_bits() ^ 1), o));
        assert_eq!(check_rows(&device, &spec, &chunks, &rows, &sample), 1);
        *chunks
            .get_mut(&((i / 4) as u32))
            .unwrap()
            .get_mut(i % 4)
            .unwrap() = Ok((s, o));

        rows.get_mut(&sample[2]).unwrap().push('0');
        assert_eq!(check_rows(&device, &spec, &chunks, &rows, &sample), 1);
    }
}
