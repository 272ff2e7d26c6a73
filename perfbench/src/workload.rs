//! The workload runners: set-up, the measured rounds, correctness
//! checks and metric assembly for an untraced or a traced run.
//!
//! An untraced run splits its window into equal rounds that each
//! measure every end-to-end metric; a metric's reported value is
//! the median over the rounds, so a burst of load from elsewhere on the
//! host that hits one round does not move it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use splat_engine::EngineStats;
use splat_server::ServerStats;

use crate::inputs::{Inputs, Workload};
use crate::layers::{self, ratio_note};
use crate::render::{
    self, closed_loop, warm_up, EnginePair, FrameSamples, References, StreamSamples,
};
use crate::report::{Metrics, Tally};
use crate::serve::{self, OpenLoop, Stack, Streams};
use crate::stats::{median, Summary};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Measured rounds per untraced run of a render workload.
const RENDER_ROUNDS: usize = 3;
/// Measured rounds per untraced `serve-mixed` run: its frames are cheap,
/// so a round still holds about 80 scheduled renders, and its tail
/// latency is what a short burst of load from elsewhere moves most.
const SERVE_ROUNDS: usize = 6;
/// Latency limits behind `render_slo_attainment`, fixed once per kind
/// of workload: a closed-loop GS-TG frame on `render-*`, an open-loop
/// `POST /render` on `serve-mixed` (timed from its due time).
pub const RENDER_SLO_MS: f64 = 400.0;
pub const SERVE_SLO_MS: f64 = 50.0;
/// Fixed open-loop rate of `POST /render` on `serve-mixed`: about 60% of
/// what its one connection sustains while the stream connection keeps
/// the engine busy (measured at about 35 requests/s on a 2-core host).
pub const SERVE_RATE: f64 = 20.0;
/// A `serve-mixed` run is invalid when its generator sent the 99th
/// percentile request later than this after it could have.
pub const MAX_LATENESS_P99_MS: f64 = 10.0;
/// Share of each `render-*` round spent on closed-loop single frames;
/// the rest streams trajectories.
const FRAMES_SHARE: f64 = 0.5;
/// Share of each `serve-mixed` round spent timing engine frames of the
/// serving scenes; the rest is the serving window.
const ENGINE_SHARE: f64 = 0.2;

/// One run's result.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    pub tracer: Option<Tracer>,
    /// Informational lines for the report (ratios, validity, tallies).
    pub notes: Vec<String>,
}

pub fn run(inputs: &Inputs, seconds: f64, trace: bool) -> Outcome {
    let window = Duration::from_secs_f64(seconds);
    match inputs.workload {
        Workload::ServeMixed => run_serve(inputs, window, trace),
        _ => run_render(inputs, window, trace),
    }
}

/// `setup` timed `SETUPS` times; the last instance is kept, earlier ones
/// are torn down by `teardown` before the next set-up starts.
fn timed_setups<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, Vec<f64>) {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let start = Instant::now();
        kept = Some(setup());
        seconds.push(start.elapsed().as_secs_f64());
    }
    (kept.expect("SETUPS is non-zero"), seconds)
}

/// Both engines with every scene registered, `SETUPS` times; returns
/// the last pair and the set-up times.
fn start_pair(inputs: &Inputs) -> (EnginePair, Vec<f64>) {
    timed_setups(|| EnginePair::start(&inputs.scenes), drop)
}

fn frame_metrics(metrics: &mut Metrics, frames: &FrameSamples) {
    metrics.percentile("gstg_frame_ms_p50", &frames.gstg_ms, 0.5);
    metrics.percentile("gstg_frame_ms_p90", &frames.gstg_ms, 0.9);
    metrics.percentile("baseline_frame_ms_p50", &frames.baseline_ms, 0.5);
    metrics.percentile("baseline_frame_ms_p90", &frames.baseline_ms, 0.9);
}

fn stream_metrics(metrics: &mut Metrics, streams: &StreamSamples) {
    metrics.percentile("stream_first_frame_ms_p50", &streams.first_frame_ms, 0.5);
    metrics.percentile("stream_frame_gap_ms_p50", &streams.gaps_ms, 0.5);
    metrics.percentile("stream_frame_gap_ms_p99", &streams.gaps_ms, 0.99);
    metrics.percentile("stream_fps", &streams.fps, 0.5);
}

/// Exact reconciliation of one engine's counters with the client's
/// tallies: `jobs` frames were submitted and served, `commits` scene
/// handles were admitted (one per submit, one per stream).
fn reconcile_engine(
    tally: &mut Tally,
    name: &str,
    before: &EngineStats,
    after: &EngineStats,
    jobs: u64,
    commits: u64,
) {
    tally.reconcile(
        &format!("{name} submitted"),
        after.submitted - before.submitted,
        jobs,
    );
    tally.reconcile(
        &format!("{name} completed"),
        after.completed - before.completed,
        jobs,
    );
    tally.reconcile(
        &format!("{name} rejected"),
        after.rejected - before.rejected,
        0,
    );
    tally.reconcile(
        &format!("{name} degraded"),
        after.degraded - before.degraded,
        0,
    );
    tally.reconcile(
        &format!("{name} scene_hits"),
        after.scene_hits - before.scene_hits,
        commits,
    );
}

fn production_note(refs: &References) -> String {
    format!(
        "{} of {} poses render differently under the production baseline (AABB tile test) \
         than under GS-TG (ellipse); every GS-TG frame equals its equivalent-baseline reference",
        refs.differing_production_slots(),
        refs.gstg.iter().map(Vec::len).sum::<usize>()
    )
}

/// The `POST /render` bodies `[scene][pose]` for registered scene ids.
fn render_bodies(inputs: &Inputs, ids: impl Iterator<Item = u64>) -> Vec<Vec<Vec<u8>>> {
    ids.map(|id| {
        (0..inputs.cameras.len())
            .map(|pose| inputs.render_body(id, pose).into_bytes())
            .collect()
    })
    .collect()
}

fn run_render(inputs: &Inputs, window: Duration, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let refs = References::render(&inputs.scenes, &inputs.cameras);
    out.notes.push(production_note(&refs));
    let (pair, setup_s) = start_pair(inputs);
    out.metrics.percentile("setup_s", &setup_s, 0.5);
    let before = pair.stats();
    let warm = warm_up(&pair, &inputs.cameras, &refs, &mut out.tally);
    if trace {
        traced_render(inputs, &refs, &pair, window, &before.0, &mut out);
        return out;
    }

    let round = window / RENDER_ROUNDS as u32;
    let mut rounds = Vec::with_capacity(RENDER_ROUNDS);
    let (mut gstg_frames, mut baseline_frames, mut stream_frames, mut streams) = (0, 0, 0, 0);
    let (mut gstg_ms, mut baseline_ms) = (Vec::new(), Vec::new());
    for _ in 0..RENDER_ROUNDS {
        let start = Instant::now();
        let frames = closed_loop(
            &pair,
            &inputs.scenes,
            &inputs.cameras,
            &refs,
            start + round.mul_f64(FRAMES_SHARE),
            &mut out.tally,
            None,
        );
        let stream = render::stream_loop(
            &pair.gstg,
            &pair.gstg_ids,
            &inputs.trajectory,
            &refs,
            start + round,
            &mut out.tally,
        );
        let mut metrics = Metrics::default();
        frame_metrics(&mut metrics, &frames);
        // One frame in flight: a request is due when the previous one
        // completed, so its latency is its frame time.
        metrics.percentile("render_latency_ms_p50", &frames.gstg_ms, 0.5);
        metrics.percentile("render_latency_ms_p99", &frames.gstg_ms, 0.99);
        let within = frames
            .gstg_ms
            .iter()
            .filter(|&&ms| ms <= RENDER_SLO_MS)
            .count();
        metrics.single(
            "render_slo_attainment",
            within.saturating_sub(frames.gstg_failed) as f64 / frames.gstg_ms.len().max(1) as f64,
            frames.gstg_ms.len(),
        );
        stream_metrics(&mut metrics, &stream);
        rounds.push(metrics);
        gstg_frames += frames.gstg_ms.len() as u64;
        baseline_frames += frames.baseline_ms.len() as u64;
        stream_frames += stream.frames;
        streams += stream.streams;
        gstg_ms.extend(frames.gstg_ms);
        baseline_ms.extend(frames.baseline_ms);
    }
    out.metrics.merge_rounds(&rounds);
    out.notes.push(ratio_note(
        "frame p50",
        median(&gstg_ms),
        median(&baseline_ms),
    ));

    let after = pair.stats();
    let (gstg_jobs, baseline_jobs) = (warm / 2 + gstg_frames, warm / 2 + baseline_frames);
    reconcile_engine(
        &mut out.tally,
        "gstg engine",
        &before.0,
        &after.0,
        gstg_jobs + stream_frames,
        gstg_jobs + streams,
    );
    reconcile_engine(
        &mut out.tally,
        "baseline engine",
        &before.1,
        &after.1,
        baseline_jobs,
        baseline_jobs,
    );
    out
}

/// The traced run of a render workload: the engine layers over the
/// window, the codec and front-door replays, then every pose once
/// through a `Server` in front of the GS-TG engine.
fn traced_render(
    inputs: &Inputs,
    refs: &References,
    pair: &EnginePair,
    window: Duration,
    before: &EngineStats,
    out: &mut Outcome,
) {
    let mut tracer = Tracer::new();
    let notes = layers::engine_layers(
        pair,
        inputs,
        refs,
        window,
        &mut out.tally,
        &mut tracer,
        &mut out.metrics,
    );
    out.notes.extend(notes);
    out.metrics
        .percentile("engine.register_ms", &pair.register_ms, 0.5);
    layers::codec_layers(inputs, &mut out.metrics);
    layers::server_replay(inputs, &refs.frames, &mut out.metrics);
    layers::engine_deltas(&mut out.metrics, before, &pair.gstg.stats());
    match Stack::around(Arc::clone(&pair.gstg), &[]) {
        Ok(stack) => {
            let server_before = stack.server.stats();
            let bodies = render_bodies(inputs, pair.gstg_ids.iter().map(|id| id.raw()));
            let probe = serve::each_once(&stack.addr, &bodies, refs);
            for (index, sample) in probe.samples.iter().enumerate() {
                out.tally.op(sample.verified && sample.full_quality, || {
                    format!("served frame {index} differs")
                });
            }
            layers::http_layers(&mut tracer, &probe.samples, &mut out.metrics);
            settle(&stack);
            layers::server_deltas(&mut out.metrics, &server_before, &stack.server.stats());
            stack.server.shutdown();
        }
        Err(error) => out.tally.fail(format!("front door: {error}")),
    }
    out.tracer = Some(tracer);
}

/// Waits until the server has released every client connection, so its
/// counters include everything the clients have read.
fn settle(stack: &Stack) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while stack.server.stats().active_connections > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// What the two `serve-mixed` clients saw over all serving windows.
#[derive(Default)]
struct ServeTotals {
    renders: OpenLoop,
    streams: Streams,
    scheduled: usize,
}

impl ServeTotals {
    fn add(&mut self, renders: OpenLoop, streams: Streams, scheduled: usize) {
        self.scheduled += scheduled;
        self.renders.samples.extend(renders.samples);
        self.renders.transport_errors += renders.transport_errors;
        self.renders.bytes_read += renders.bytes_read;
        self.renders.bytes_written += renders.bytes_written;
        self.streams.streams.extend(streams.streams);
        self.streams.ok += streams.ok;
        self.streams.frames += streams.frames;
        self.streams.bad_frames += streams.bad_frames;
        self.streams.degraded += streams.degraded;
        self.streams.refusals += streams.refusals;
        self.streams.transport_errors += streams.transport_errors;
        self.streams.bytes_read += streams.bytes_read;
        self.streams.bytes_written += streams.bytes_written;
    }
}

/// One serving window: open-loop `POST /render` on one connection and
/// back-to-back trajectory streams on another, from now until `end`.
/// Returns what both clients saw and how many renders were scheduled.
fn serve_window(
    stack: &Stack,
    bodies: &[Vec<Vec<u8>>],
    streams: &[Vec<u8>],
    refs: &References,
    end: Instant,
) -> (OpenLoop, Streams, usize) {
    let start = Instant::now();
    let (renders, stream) = std::thread::scope(|scope| {
        let renders =
            scope.spawn(|| serve::open_loop(&stack.addr, bodies, refs, SERVE_RATE, start, end));
        let stream = scope.spawn(|| serve::stream_loop(&stack.addr, streams, refs, end));
        (renders.join(), stream.join())
    });
    let scheduled =
        (end.saturating_duration_since(start).as_secs_f64() * SERVE_RATE).ceil() as usize;
    match (renders, stream) {
        (Ok(renders), Ok(stream)) => (renders, stream, scheduled),
        // A panicked client saw nothing: every scheduled render misses.
        _ => (
            OpenLoop::default(),
            Streams {
                transport_errors: 1,
                ..Streams::default()
            },
            scheduled,
        ),
    }
}

/// Counts every scheduled render and streamed frame as an operation,
/// and sets the serving metrics of one window. Returns the renders that
/// met the latency limit.
fn serve_metrics(
    metrics: &mut Metrics,
    tally: &mut Tally,
    renders: &OpenLoop,
    streams: &Streams,
    scheduled: usize,
) -> usize {
    let mut met = 0;
    for index in 0..scheduled {
        let sample = renders.samples.get(index);
        let ok = sample.is_some_and(|s| s.status == 200 && s.verified && s.full_quality);
        met += usize::from(ok && sample.is_some_and(|s| s.timing.latency_ms <= SERVE_SLO_MS));
        tally.op(ok, || {
            format!(
                "render {index}: {:?}",
                sample.map(|s| (s.status, s.verified, s.full_quality))
            )
        });
    }
    tally.passed(streams.frames.saturating_sub(streams.bad_frames));
    for _ in 0..streams.bad_frames
        + streams.refusals
        + streams.transport_errors
        + renders.transport_errors
    {
        tally.op(false, || "stream frame or transport failure".to_string());
    }
    let latencies: Vec<f64> = renders
        .samples
        .iter()
        .map(|s| s.timing.latency_ms)
        .collect();
    metrics.percentile("render_latency_ms_p50", &latencies, 0.5);
    metrics.percentile("render_latency_ms_p99", &latencies, 0.99);
    metrics.single(
        "render_slo_attainment",
        met as f64 / scheduled.max(1) as f64,
        scheduled,
    );
    let mut samples = StreamSamples::default();
    for (sent, arrivals) in &streams.streams {
        samples.record(*sent, arrivals);
    }
    stream_metrics(metrics, &samples);
    met
}

/// Client tallies, `ServerStats` and `EngineStats` must tell one story.
fn reconcile_serve(
    tally: &mut Tally,
    server: (&ServerStats, &ServerStats),
    engine: (&EngineStats, &EngineStats),
    totals: &ServeTotals,
) {
    let (renders, streams) = (&totals.renders, &totals.streams);
    let count = |pred: &dyn Fn(&serve::RenderSample) -> bool| {
        renders.samples.iter().filter(|s| pred(s)).count() as u64
    };
    let render_ok = count(&|s| s.status == 200);
    let render_503 = count(&|s| s.status == 503);
    let render_degraded = count(&|s| s.status == 200 && !s.full_quality);
    let d = |field: fn(&ServerStats) -> u64| field(server.1) - field(server.0);
    let e = |field: fn(&EngineStats) -> u64| field(engine.1) - field(engine.0);
    tally.reconcile(
        "server requests == routed",
        server.1.requests,
        server.1.routed(),
    );
    tally.reconcile(
        "server requests == responded",
        server.1.requests,
        server.1.responded(),
    );
    tally.reconcile(
        "server render_requests",
        d(|s| s.render_requests),
        renders.samples.len() as u64,
    );
    tally.reconcile(
        "server trajectory_requests",
        d(|s| s.trajectory_requests),
        streams.streams.len() as u64,
    );
    tally.reconcile("server ok", d(|s| s.ok), render_ok + streams.ok);
    tally.reconcile("server overloaded", d(|s| s.overloaded), render_503);
    tally.reconcile(
        "server frames_streamed",
        d(|s| s.frames_streamed),
        streams.frames,
    );
    tally.reconcile(
        "server bytes_out",
        d(|s| s.bytes_out),
        renders.bytes_read + streams.bytes_read,
    );
    tally.reconcile(
        "server bytes_in",
        d(|s| s.bytes_in),
        renders.bytes_written + streams.bytes_written,
    );
    tally.reconcile(
        "engine completed",
        e(|s| s.completed),
        render_ok + streams.frames,
    );
    tally.reconcile(
        "engine rejected",
        e(|s| s.rejected),
        render_503 + streams.refusals,
    );
    tally.reconcile(
        "engine degraded",
        e(|s| s.degraded),
        render_degraded + streams.degraded,
    );
    tally.reconcile(
        "engine scene_hits",
        e(|s| s.scene_hits),
        render_ok + streams.ok,
    );
}

fn run_serve(inputs: &Inputs, window: Duration, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let refs = References::render(&inputs.scenes, &inputs.cameras);
    let (stack, setup_s) = timed_setups(
        || Stack::start(&inputs.encoded),
        |stack| {
            if let Ok(stack) = stack {
                stack.server.shutdown();
            }
        },
    );
    out.metrics.percentile("setup_s", &setup_s, 0.5);
    let stack = match stack {
        Ok(stack) => stack,
        Err(error) => {
            out.tally
                .fail(format!("serving stack set-up failed: {error}"));
            return out;
        }
    };

    // Engine-level frame times of the serving scenes, on the same
    // single-worker engines the render workloads use.
    let (pair, _) = start_pair(inputs);
    let pair_before = pair.stats();
    let warm = warm_up(&pair, &inputs.cameras, &refs, &mut out.tally);

    let bodies = render_bodies(inputs, stack.scene_ids.iter().copied());
    let stream_bodies: Vec<Vec<u8>> = stack
        .scene_ids
        .iter()
        .map(|&id| inputs.trajectory_body(id).into_bytes())
        .collect();
    // Untimed warm-up of the front door: every pose once and one stream
    // per scene.
    let warm_renders = serve::each_once(&stack.addr, &bodies, &refs);
    let warm_streams = serve::stream_loop(&stack.addr, &stream_bodies, &refs, Instant::now());
    for sample in &warm_renders.samples {
        out.tally.op(sample.verified && sample.full_quality, || {
            "front-door warm-up frame differs".to_string()
        });
    }
    out.tally.op(
        warm_renders.samples.len() == inputs.scenes.len() * inputs.cameras.len()
            && warm_streams.ok == stream_bodies.len() as u64
            && warm_streams.bad_frames == 0,
        || "front-door warm-up incomplete".to_string(),
    );
    settle(&stack);
    let server_before = stack.server.stats();
    let engine_before = stack.server.engine().stats();

    let mut totals = ServeTotals::default();
    let mut met = 0;
    if trace {
        // One round: the traced engine layers, then one serving window.
        let mut tracer = Tracer::new();
        let engine_window = window.mul_f64(2.0 * ENGINE_SHARE);
        let notes = layers::engine_layers(
            &pair,
            inputs,
            &refs,
            engine_window,
            &mut out.tally,
            &mut tracer,
            &mut out.metrics,
        );
        out.notes.extend(notes);
        out.metrics
            .percentile("engine.register_ms", &pair.register_ms, 0.5);
        layers::codec_layers(inputs, &mut out.metrics);
        layers::server_replay(inputs, &refs.frames, &mut out.metrics);
        let end = Instant::now() + window.saturating_sub(engine_window);
        let (renders, streams, scheduled) =
            serve_window(&stack, &bodies, &stream_bodies, &refs, end);
        met += serve_metrics(
            &mut Metrics::default(),
            &mut out.tally,
            &renders,
            &streams,
            scheduled,
        );
        layers::http_layers(&mut tracer, &renders.samples, &mut out.metrics);
        totals.add(renders, streams, scheduled);
        out.tracer = Some(tracer);
    } else {
        let round = window / SERVE_ROUNDS as u32;
        let mut rounds = Vec::with_capacity(SERVE_ROUNDS);
        let (mut gstg_frames, mut baseline_frames) = (0, 0);
        for _ in 0..SERVE_ROUNDS {
            let start = Instant::now();
            let frames = closed_loop(
                &pair,
                &inputs.scenes,
                &inputs.cameras,
                &refs,
                start + round.mul_f64(ENGINE_SHARE),
                &mut out.tally,
                None,
            );
            gstg_frames += frames.gstg_ms.len() as u64;
            baseline_frames += frames.baseline_ms.len() as u64;
            let (renders, streams, scheduled) =
                serve_window(&stack, &bodies, &stream_bodies, &refs, start + round);
            let mut metrics = Metrics::default();
            frame_metrics(&mut metrics, &frames);
            met += serve_metrics(&mut metrics, &mut out.tally, &renders, &streams, scheduled);
            rounds.push(metrics);
            totals.add(renders, streams, scheduled);
        }
        out.metrics.merge_rounds(&rounds);
        let pair_after = pair.stats();
        let (gstg_jobs, baseline_jobs) = (warm / 2 + gstg_frames, warm / 2 + baseline_frames);
        reconcile_engine(
            &mut out.tally,
            "gstg engine",
            &pair_before.0,
            &pair_after.0,
            gstg_jobs,
            gstg_jobs,
        );
        reconcile_engine(
            &mut out.tally,
            "baseline engine",
            &pair_before.1,
            &pair_after.1,
            baseline_jobs,
            baseline_jobs,
        );
    }
    drop(pair);
    settle(&stack);
    let server_after = stack.server.stats();
    let engine_after = stack.server.engine().stats();
    reconcile_serve(
        &mut out.tally,
        (&server_before, &server_after),
        (&engine_before, &engine_after),
        &totals,
    );
    if trace {
        layers::server_deltas(&mut out.metrics, &server_before, &server_after);
        layers::engine_deltas(&mut out.metrics, &engine_before, &engine_after);
    }

    let lateness: Vec<f64> = totals
        .renders
        .samples
        .iter()
        .map(|s| s.timing.lateness_ms)
        .collect();
    let lateness_p99 = Summary::percentile(&lateness, 0.99).map_or(0.0, |s| s.value);
    out.notes.push(format!(
        "open loop: {} scheduled at {SERVE_RATE}/s, {} answered, {met} within {SERVE_SLO_MS} ms; \
         generator lateness p99 {lateness_p99:.3} ms (bound {MAX_LATENESS_P99_MS} ms); {} streams, {} frames",
        totals.scheduled,
        totals.renders.samples.len(),
        totals.streams.ok,
        totals.streams.frames
    ));
    if lateness_p99 > MAX_LATENESS_P99_MS {
        out.tally.fail(format!(
            "invalid run: generator lateness p99 {lateness_p99:.3} ms exceeds {MAX_LATENESS_P99_MS} ms"
        ));
    }
    stack.server.shutdown();
    out
}
