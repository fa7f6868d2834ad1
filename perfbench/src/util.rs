//! Shared plumbing: the seeded input generator, sample statistics,
//! process readings from `/proc`, the memo-cache controls, the hashing
//! output writer that stands in for stdout, and the result line.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use twocs::hw::CacheStats;

/// splitmix64: the only source of randomness. The seed feeds nothing
/// but this generator, so one seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct sorted indices from `0..n` (all of them if `k >= n`).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        if k >= n {
            return (0..n).collect();
        }
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < k {
            picked.insert(self.below(n));
        }
        picked.into_iter().collect()
    }
}

/// `count` flop-vs-bw ratios: `first + step * k` for `k` in
/// `0..count`, each moved by a seeded jitter of under a tenth of a step,
/// rounded to 4 decimals. Values stay distinct and ascending, so the
/// point count never depends on the seed, while the seed still changes
/// every evolved device (and so every memo-cache key).
pub fn jittered_ratios(rng: &mut Rng, first: f64, step: f64, count: usize) -> Vec<f64> {
    (0..count)
        .map(|k| {
            let r = first + step * k as f64 + 0.09 * step * rng.unit();
            (r * 10_000.0).round() / 10_000.0
        })
        .collect()
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0..1) of `sorted`, with the number of
/// samples strictly beyond its rank.
pub fn percentile(sorted: &[f64], q: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// The highest percentile of `sorted` that still has `min_beyond`
/// samples beyond it: `(percentile in %, value)`, or `None` when there
/// are too few samples.
pub fn highest_supported(sorted: &[f64], min_beyond: usize) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= min_beyond {
        return None;
    }
    let rank = n - min_beyond;
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of this process so far, in KiB (`VmHWM`).
pub fn peak_rss_kb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64
}

/// Kernel clock ticks per second for `/proc` CPU counters (`USER_HZ`,
/// fixed at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU time this process has used, in seconds.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let f: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Host-wide steal time so far, in seconds (from `/proc/stat`).
pub fn steal_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |t| t / TICKS_PER_S)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Empty the three global memo caches (gemm time, collective cost,
/// slack-ROI profile) and zero their counters, so every timed sweep
/// starts as cold as a fresh process.
pub fn clear_memo_caches() {
    twocs::hw::cache::clear_gemm_time_cache();
    twocs::collectives::clear_node_time_cache();
    twocs::opmodel::clear_slack_roi_cache();
}

/// Counters of the three memo caches: gemm time, collective, slack-ROI.
pub fn cache_stats() -> [(&'static str, CacheStats); 3] {
    [
        ("gemm_time", twocs::hw::cache::gemm_time_cache_stats()),
        ("collective", twocs::collectives::node_time_cache_stats()),
        ("slack_roi", twocs::opmodel::slack_roi_cache_stats()),
    ]
}

/// Report each memo cache's lookups and hit ratio as per-layer metrics.
pub fn cache_metrics(out: &mut Outcome, caches: [(&'static str, CacheStats); 3]) {
    for (name, stats) in caches {
        let lookups = stats.hits + stats.misses;
        out.metric(format!("cache.{name}.lookups"), lookups as f64, "count");
        out.metric(
            format!("cache.{name}.hit_ratio"),
            stats.hits as f64 / lookups.max(1) as f64,
            "share",
        );
    }
}

/// A fresh scratch directory inside the checkout, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(name: &str) -> io::Result<Self> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tmp")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the hashing writer saw.
#[derive(Debug, Default)]
pub struct Capture {
    pub bytes: u64,
    pub hash: u64,
    /// Complete lines seen, header included.
    pub lines: usize,
    /// When the first data row (line 1) was complete.
    pub first_row_at: Option<Instant>,
    /// Captured data rows by row index (0 = first data row).
    pub rows: HashMap<usize, String>,
    /// Time spent inside `write` calls (timed writers only).
    pub write_time: Duration,
    line: Vec<u8>,
}

/// The output writer that replaces stdout: hashes every byte, counts
/// lines, stamps the first data row, and keeps the data rows whose
/// indices are in `keep` (or every row with `keep_all`).
pub struct HashWriter {
    state: Arc<Mutex<Capture>>,
    keep: Vec<usize>,
    next_keep: usize,
    keep_all: bool,
    timed: bool,
}

impl HashWriter {
    pub fn new(keep: Vec<usize>, keep_all: bool, timed: bool) -> (Self, Arc<Mutex<Capture>>) {
        let state = Arc::new(Mutex::new(Capture {
            hash: 0xCBF2_9CE4_8422_2325,
            ..Capture::default()
        }));
        let writer = Self {
            state: Arc::clone(&state),
            keep,
            next_keep: 0,
            keep_all,
            timed,
        };
        (writer, state)
    }

    fn keeping(&self, line: usize) -> bool {
        line > 0 && (self.keep_all || self.keep.get(self.next_keep) == Some(&(line - 1)))
    }
}

impl Write for HashWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let started = self.timed.then(Instant::now);
        let mut st = self.state.lock().expect("capture lock");
        st.bytes += buf.len() as u64;
        let mut h = st.hash;
        for &b in buf {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        st.hash = h;
        let mut rest = buf;
        while !rest.is_empty() {
            let keeping = self.keeping(st.lines);
            match rest.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    if keeping {
                        st.line.extend_from_slice(&rest[..i]);
                        let row =
                            String::from_utf8_lossy(&std::mem::take(&mut st.line)).into_owned();
                        let index = st.lines - 1;
                        st.rows.insert(index, row);
                        if !self.keep_all {
                            self.next_keep += 1;
                        }
                    }
                    st.lines += 1;
                    if st.lines == 2 {
                        st.first_row_at = Some(Instant::now());
                    }
                    rest = &rest[i + 1..];
                }
                None => {
                    if keeping {
                        st.line.extend_from_slice(rest);
                    }
                    rest = &[];
                }
            }
        }
        if let Some(t) = started {
            st.write_time += t.elapsed();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Per-stage busy time accumulated around calls into the layers. When
/// off, `time` calls straight through with no clock reads, so the same
/// loop body serves as its own untraced twin.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    stages: Vec<(&'static str, Duration, u64)>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            stages: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn time<T>(&mut self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.add(stage, started.elapsed(), 1);
        out
    }

    pub fn add(&mut self, stage: &'static str, d: Duration, calls: u64) {
        match self.stages.iter_mut().find(|(s, _, _)| *s == stage) {
            Some(slot) => {
                slot.1 += d;
                slot.2 += calls;
            }
            None => self.stages.push((stage, d, calls)),
        }
    }

    pub fn secs(&self, stage: &str) -> f64 {
        self.stages
            .iter()
            .find(|(s, _, _)| *s == stage)
            .map_or(0.0, |(_, d, _)| d.as_secs_f64())
    }

    /// Sum of every stage's busy time, in seconds.
    pub fn covered(&self) -> f64 {
        self.stages.iter().map(|(_, d, _)| d.as_secs_f64()).sum()
    }
}

/// The end-to-end metrics every untraced run prints, in this order, with
/// their units: the `end_to_end` list of `BENCHMARK.json`. An "op" is
/// one grid point on the sweep workloads and one request on serve_mix.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("max_rss_kb", "KiB"),
];

/// The per-layer metrics every traced run prints: the `per_layer` list
/// of `BENCHMARK.json`. Every workload prints all of them. A `_share` is
/// the busy time of the benchmark's own timed calls into that layer over
/// the wall time of the pass that made them, so a layer the workload's
/// path never calls reads 0, as do its counters.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("planner.build_share", "share"),
    ("planner.eval_share", "share"),
    ("planner.cells", "count"),
    ("grid.decode_share", "share"),
    ("store.journal_share", "share"),
    ("store.fsyncs", "count"),
    ("store.journal_bytes", "B"),
    ("store.render_share", "share"),
    ("store.write_share", "share"),
    ("store.out_bytes", "B"),
    ("cache.gemm_time.lookups", "count"),
    ("cache.gemm_time.hit_ratio", "share"),
    ("cache.collective.lookups", "count"),
    ("cache.collective.hit_ratio", "share"),
    ("cache.slack_roi.lookups", "count"),
    ("cache.slack_roi.hit_ratio", "share"),
    ("transformer.graph_build_share", "share"),
    ("transformer.tasks_per_point", "count"),
    ("sim.engine_share", "share"),
    ("opmodel.overlap_share", "share"),
    ("serve.handler.hot_share", "share"),
    ("serve.handler.cold_share", "share"),
    ("serve.handler.invalid_share", "share"),
    ("serve.frontend_share", "share"),
    ("serve.cache.hit_ratio", "share"),
    ("serve.cache.entries", "count"),
    ("dist.merge_share", "share"),
    ("dist.worker_idle_share", "share"),
    ("dist.wire_bytes_per_point", "B"),
    ("dist.plan_builds", "count"),
    ("process.cpu_per_wall", "share"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.coverage_share", "share"),
    ("obs.traced_wall_s", "s"),
];

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Structural checks that are not per-operation (row counts, journal
    /// replay, exactly-once delivery) — any `false` makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.to_owned(),
        });
    }

    /// Report `busy` seconds in a layer as a share of `wall`, and note
    /// the seconds themselves.
    pub fn share(&mut self, name: &str, busy: f64, wall: f64) {
        note(&format!("{name}_s"), busy);
        self.metric(format!("{name}_share"), busy / wall, "share");
    }

    /// Put the metrics in manifest order: `END_TO_END` for an untraced
    /// run, `PER_LAYER` for a traced one, where a per-layer metric the
    /// workload did not report reads 0 (its path never calls that
    /// layer). Fails on a missing end-to-end metric, an unknown name or a
    /// wrong unit, so the result line always matches the manifest.
    pub fn complete(&mut self, trace: bool) -> Result<(), String> {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        if let Some(m) = self
            .metrics
            .iter()
            .find(|m| !list.iter().any(|&(n, u)| n == m.name && u == m.unit))
        {
            return Err(format!(
                "metric {} [{}] is not in the manifest",
                m.name, m.unit
            ));
        }
        let mut ordered = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = match self.metrics.iter().find(|m| m.name == name) {
                Some(m) => m.value,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            ordered.push(Metric {
                name: name.to_owned(),
                value,
                unit: unit.to_owned(),
            });
        }
        self.metrics = ordered;
        Ok(())
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The three metrics every traced run ends with: CPU use of its
    /// end-to-end pass, the timed replay's wall time against the untimed
    /// one, and the share of the traced wall the timed calls cover.
    pub fn trace_summary(
        &mut self,
        cpu_per_wall: f64,
        untraced_s: f64,
        traced_s: f64,
        coverage: f64,
    ) {
        self.metric("obs.traced_wall_s", traced_s, "s");
        self.metric("process.cpu_per_wall", cpu_per_wall, "share");
        self.metric(
            "obs.trace_overhead_pct",
            100.0 * (traced_s - untraced_s) / untraced_s,
            "%",
        );
        self.metric("obs.coverage_share", coverage, "share");
    }

    /// Read back a line written by [`Outcome::json`]; an incorrect
    /// result comes back with one problem.
    pub fn parse(line: &str) -> Option<Self> {
        let field = |key: &str| {
            let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
            rest.get(..rest.find([',', '}'])?)
        };
        let mut out = Outcome {
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            ..Outcome::default()
        };
        if field("correct")? != "true" {
            out.problems.push("reported incorrect".to_owned());
        }
        let metrics = &line[line.find("\"metrics\":{")? + 11..];
        for entry in metrics
            .split("},")
            .filter(|e| !e.trim_matches('}').is_empty())
        {
            let (name, rest) = entry.split_once(":{\"value\":")?;
            let (value, unit) = rest.split_once(",\"unit\":")?;
            out.metric(
                name.trim_matches('"'),
                value.parse().ok()?,
                unit.trim_matches(['"', '}']),
            );
        }
        Some(out)
    }

    /// The result object, printed as the last line of stdout.
    pub fn json(&self) -> String {
        let correct = self.failed == 0 && self.problems.is_empty();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// Print one metadata line (not part of the result object).
pub fn note(key: &str, value: impl std::fmt::Display) {
    println!("# {key} = {value}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_samples_beyond() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), (500.0, 500));
        assert_eq!(percentile(&sorted, 0.99), (990.0, 10));
        assert_eq!(highest_supported(&sorted, 10), Some((99.0, 990.0)));
        assert_eq!(highest_supported(&sorted[..10], 10), None);
    }

    #[test]
    fn result_line_round_trips() {
        let mut out = Outcome {
            attempted: 12,
            failed: 1,
            ..Outcome::default()
        };
        out.metric("setup_s", 0.25, "s");
        out.metric("points_per_s", 1234.5, "1/s");
        let back = Outcome::parse(&out.json()).unwrap();
        assert_eq!((back.attempted, back.failed), (12, 1));
        assert_eq!(back.problems.len(), 1);
        assert_eq!(back.metrics.len(), 2);
        assert_eq!(back.metrics[1].name, "points_per_s");
        assert_eq!(back.metrics[1].value, 1234.5);
        assert_eq!(back.metrics[1].unit, "1/s");
        assert_eq!(back.json(), out.json());
    }

    /// `(name, unit)` of every entry of one metric list of BENCHMARK.json.
    fn manifest_list(key: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).unwrap();
        let rest = &manifest[manifest.find(&format!("\"{key}\": [")).unwrap()..];
        let body = &rest[..rest.find(']').unwrap()];
        let quoted = |entry: &str, field: &str| {
            let at = entry.find(&format!("\"{field}\": \"")).unwrap() + field.len() + 5;
            entry[at..entry[at..].find('"').unwrap() + at].to_owned()
        };
        body.split('{')
            .skip(1)
            .map(|e| (quoted(e, "name"), quoted(e, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(manifest_list("end_to_end"), own(&END_TO_END));
        assert_eq!(manifest_list("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn complete_orders_fills_and_refuses() {
        let mut traced = Outcome::default();
        traced.metric("obs.coverage_share", 0.9, "share");
        traced.complete(true).unwrap();
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        assert!(traced
            .metrics
            .iter()
            .all(|m| m.value == f64::from(u8::from(m.name == "obs.coverage_share")) * 0.9));

        let mut untraced = Outcome::default();
        untraced.metric("max_rss_kb", 1.0, "KiB");
        untraced.metric("ops_per_s", 2.0, "1/s");
        untraced.metric("setup_s", 3.0, "s");
        untraced.complete(false).unwrap();
        let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["setup_s", "ops_per_s", "max_rss_kb"]);

        untraced.metrics.pop();
        assert!(untraced.complete(false).is_err());
        untraced.metric("max_rss_kb", 1.0, "MiB");
        assert!(untraced.complete(false).is_err());
    }

    #[test]
    fn writer_keeps_sampled_rows_across_split_writes() {
        let (mut w, state) = HashWriter::new(vec![1, 3], false, false);
        w.write_all(b"a,b").unwrap();
        w.write_all(b"\n").unwrap();
        for row in ["r0\n", "r1\n", "r2\n", "r3\n"] {
            w.write_all(row.as_bytes()).unwrap();
        }
        let st = state.lock().unwrap();
        assert_eq!(st.lines, 5);
        assert_eq!(st.rows.len(), 2);
        assert_eq!(st.rows[&1], "r1");
        assert_eq!(st.rows[&3], "r3");
        assert!(st.first_row_at.is_some());
    }
}
