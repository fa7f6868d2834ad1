//! The two ways a streamed sweep runs here: end to end through
//! `twocs_store::run_streaming` (what `twocs sweep` does), and as a
//! serial replay that calls each layer's public function itself, in the
//! same order, so the traced run can time every stage.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use twocs::analysis::{GridPoint, PointResults};
use twocs::hw::DeviceSpec;
use twocs::store::{run_streaming, Journal, StoreReport, StreamSink, SweepSpec, SweepStore};

use crate::util::{Capture, HashWriter, Spans};

/// One end-to-end sweep call.
pub struct SweepRun {
    pub wall: Duration,
    /// From the sweep call until the first data row reached the output.
    pub setup: Duration,
    pub evaluated: u64,
    pub report: StoreReport,
    pub capture: Capture,
}

/// Run `spec` through `SweepStore` + `run_streaming` on `jobs` threads,
/// journaling to `journal` when given, into a [`HashWriter`] that keeps
/// the data rows listed in `keep` (or all rows with `keep_all`).
pub fn run_store_sweep(
    device: &DeviceSpec,
    spec: &SweepSpec,
    journal: Option<&Path>,
    jobs: usize,
    keep: &[usize],
    keep_all: bool,
) -> Result<SweepRun, String> {
    let (writer, capture) = HashWriter::new(keep.to_vec(), keep_all, false);
    let started = Instant::now();
    let mut store = SweepStore::create(spec.clone(), Box::new(writer), journal)?;
    let evaluated = run_streaming(device, &mut store, jobs)?;
    let report = store.finish()?;
    let wall = started.elapsed();
    let capture = take(&capture);
    let setup = capture
        .first_row_at
        .map_or(wall, |at| at.duration_since(started));
    Ok(SweepRun {
        wall,
        setup,
        evaluated,
        report,
        capture,
    })
}

/// Move the capture out of its shared slot once the writer is gone.
pub fn take(capture: &Arc<Mutex<Capture>>) -> Capture {
    std::mem::take(&mut *capture.lock().expect("capture lock"))
}

/// The serial replay: per chunk, decode → `eval` → journal append →
/// sink, each call timed into `spans` under the layer's name
/// (`grid.decode`, whatever `eval` records, `store.journal`,
/// `store.render`). Returns the wall time and the writer's capture
/// (whose `write_time` is the `store.write` share of `store.render`).
pub fn replay_sweep(
    spec: &SweepSpec,
    journal: Option<&Path>,
    spans: &mut Spans,
    eval: &mut dyn FnMut(&[GridPoint], &mut Spans) -> PointResults,
) -> Result<(Duration, Capture), String> {
    let (writer, capture) = HashWriter::new(Vec::new(), false, spans.on());
    let started = Instant::now();
    let index = spec.index();
    let chunk_size = spec.chunk_size.max(1) as usize;
    let mut journal = journal.map(|p| Journal::create(p, spec)).transpose()?;
    let mut sink = StreamSink::new(
        index.clone(),
        chunk_size,
        Box::new(writer),
        twocs::store::DEFAULT_BUFFER_POINTS,
    )?;
    for chunk in 0..spec.chunk_count() {
        let points = spans.time("grid.decode", || {
            index.chunk_points(chunk as usize, chunk_size)
        });
        let values = eval(&points, spans);
        if let Some(j) = &mut journal {
            spans.time("store.journal", || j.append_chunk(chunk, &values))?;
        }
        spans.time("store.render", || sink.accept(chunk, values))?;
    }
    spans.time("store.render", || sink.finish())?;
    Ok((started.elapsed(), take(&capture)))
}
