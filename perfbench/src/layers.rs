//! Per-layer metrics of the traced run.
//!
//! Every span is recorded from the benchmark's own code around a call
//! into a layer's public functions; nothing inside the program is
//! instrumented.

use std::time::{Duration, Instant};

use splat_core::{Framebuffer, StageCounts};
use splat_engine::EngineStats;
use splat_scene::io::{decode_scene, encode_scene};
use splat_scene::LodLadder;
use splat_server::{encode_frame, frame_digest, ServerStats};

use crate::inputs::Inputs;
use crate::render::{closed_loop, EnginePair, References, Replay};
use crate::report::{Metrics, Tally};
use crate::serve::RenderSample;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::workload::SETUPS;

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Runs `window`: a third untraced, then two thirds with every frame
/// replayed stage by stage under spans. Sets the render, gstg, core,
/// engine, trace and tradeoff metrics and returns the ratio notes.
pub fn engine_layers(
    pair: &EnginePair,
    inputs: &Inputs,
    refs: &References,
    window: Duration,
    tally: &mut Tally,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Vec<String> {
    let start = Instant::now();
    let untraced = closed_loop(
        pair,
        &inputs.scenes,
        &inputs.cameras,
        refs,
        start + window / 3,
        tally,
        None,
    );
    let mut replay = Replay::new();
    let traced = closed_loop(
        pair,
        &inputs.scenes,
        &inputs.cameras,
        refs,
        start + window,
        tally,
        Some((&mut replay, tracer)),
    );

    for (span, metric) in [
        ("render.preprocess", "render.preprocess_ms"),
        ("render.identify", "render.identify_ms"),
        ("render.sort", "render.sort_ms"),
        ("render.raster", "render.raster_ms"),
        ("gstg.preprocess", "gstg.preprocess_ms"),
        ("gstg.identify", "gstg.identify_ms"),
        ("gstg.sort", "gstg.sort_ms"),
        ("gstg.raster", "gstg.raster_ms"),
    ] {
        metrics.percentile(metric, &tracer.self_times_ms(span), 0.5);
    }
    let per_frame = |counts: &[StageCounts], field: fn(&StageCounts) -> u64| {
        mean(&counts.iter().map(|c| field(c) as f64).collect::<Vec<_>>())
    };
    let (base, gstg) = (&replay.baseline_counts, &replay.gstg_counts);
    metrics.single(
        "render.tile_intersections",
        per_frame(base, |c| c.tile_intersections),
        base.len(),
    );
    metrics.single(
        "render.sort_keys",
        per_frame(base, |c| c.sort_keys),
        base.len(),
    );
    metrics.single(
        "gstg.sort_keys",
        per_frame(gstg, |c| c.sort_keys),
        gstg.len(),
    );
    metrics.single(
        "gstg.bitmask_tests",
        per_frame(gstg, |c| c.bitmask_tests),
        gstg.len(),
    );
    metrics.single(
        "gstg.bitmask_filter_ops",
        per_frame(gstg, |c| c.bitmask_filter_ops),
        gstg.len(),
    );
    let alpha = per_frame(gstg, |c| c.alpha_computations);
    let blend = per_frame(gstg, |c| c.blend_operations);
    metrics.single("core.alpha_computations", alpha, gstg.len());
    metrics.single("core.blend_operations", blend, gstg.len());
    metrics.single(
        "core.blend_per_alpha",
        if alpha > 0.0 { blend / alpha } else { 0.0 },
        gstg.len(),
    );
    metrics.single(
        "core.early_exits",
        per_frame(gstg, |c| c.early_exits),
        gstg.len(),
    );
    metrics.single("core.footprint_bytes", pair.footprint_bytes() as f64, 1);

    let submit_us: Vec<f64> = tracer
        .durations_ms("engine.submit")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    metrics.percentile("engine.submit_us", &submit_us, 0.5);
    metrics.percentile("engine.wait_ms", &tracer.durations_ms("engine.wait"), 0.5);
    // The engine's frame time minus the replayed stages of the same frame.
    let stage_sums = &replay.stages_ms;
    let overhead: Vec<f64> = traced
        .traced_ms
        .iter()
        .zip(stage_sums)
        .map(|(frame_ms, stages_ms)| frame_ms - stages_ms)
        .collect();
    metrics.percentile("engine.overhead_ms", &overhead, 0.5);

    let untraced_all: Vec<f64> = untraced
        .gstg_ms
        .iter()
        .chain(&untraced.baseline_ms)
        .copied()
        .collect();
    let traced_all: Vec<f64> = traced
        .gstg_ms
        .iter()
        .chain(&traced.baseline_ms)
        .copied()
        .collect();
    let untraced_ms = median(&untraced_all);
    metrics.percentile("trace.untraced_frame_ms", &untraced_all, 0.5);
    metrics.percentile("trace.traced_frame_ms", &traced_all, 0.5);
    metrics.single(
        "trace.overhead_pct",
        100.0 * (median(&traced_all) / untraced_ms - 1.0),
        traced_all.len(),
    );
    metrics.single(
        "trace.accounted_pct",
        100.0 * (median(stage_sums) + median(&overhead)) / untraced_ms,
        stage_sums.len(),
    );

    let stage = |name: &str| median(&tracer.self_times_ms(name));
    let ratios = [
        (
            "tradeoff.sort_keys_ratio",
            "sort keys/frame",
            per_frame(gstg, |c| c.sort_keys),
            per_frame(base, |c| c.sort_keys),
        ),
        (
            "tradeoff.sort_ms_ratio",
            "sort ms",
            stage("gstg.sort"),
            stage("render.sort"),
        ),
        (
            "tradeoff.identify_ms_ratio",
            "identify ms",
            stage("gstg.identify"),
            stage("render.identify"),
        ),
        (
            "tradeoff.frame_ms_ratio",
            "engine frame ms p50",
            median(&untraced.gstg_ms),
            median(&untraced.baseline_ms),
        ),
    ];
    ratios
        .into_iter()
        .map(|(metric, label, gstg_value, base_value)| {
            metrics.single(metric, gstg_value / base_value, gstg.len());
            ratio_note(&format!("tradeoff {label}"), gstg_value, base_value)
        })
        .collect()
}

pub fn ratio_note(label: &str, gstg: f64, baseline: f64) -> String {
    format!(
        "{label}: gstg {gstg:.4} / baseline {baseline:.4} = {:.3}",
        gstg / baseline
    )
}

/// LOD ladder build and scene codec timings, medians of `SETUPS` repeats.
pub fn codec_layers(inputs: &Inputs, metrics: &mut Metrics) {
    let (mut ladder, mut encode, mut decode) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUPS {
        for (scene, bytes) in inputs.scenes.iter().zip(&inputs.encoded) {
            let start = Instant::now();
            std::hint::black_box(LodLadder::build(scene));
            ladder.push(ms(start.elapsed()));
            let start = Instant::now();
            std::hint::black_box(encode_scene(scene));
            encode.push(ms(start.elapsed()));
            let start = Instant::now();
            let _ = std::hint::black_box(decode_scene(bytes));
            decode.push(ms(start.elapsed()));
        }
    }
    metrics.percentile("lod.ladder_build_ms", &ladder, 0.5);
    metrics.percentile("scene.encode_ms", &encode, 0.5);
    metrics.percentile("scene.decode_ms", &decode, 0.5);
}

/// Replays the workload's own request bodies and reference frames
/// through the front door's parse, encode, digest and write functions,
/// writing into an in-memory sink.
pub fn server_replay(inputs: &Inputs, frames: &[Vec<Framebuffer>], metrics: &mut Metrics) {
    let us = |start: Instant| start.elapsed().as_secs_f64() * 1e6;
    let (mut parse, mut encode, mut digest, mut write) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut sink = Vec::new();
    for _ in 0..SETUPS {
        for scene in frames {
            for (pose, frame) in scene.iter().enumerate() {
                let body = inputs.render_body(1, pose);
                let start = Instant::now();
                let parsed = splat_server::parse_json(&body)
                    .ok()
                    .and_then(|json| splat_server::wire::parse_render_request(&json).ok());
                parse.push(us(start));
                std::hint::black_box(parsed);
                let start = Instant::now();
                let encoded = encode_frame(frame);
                encode.push(us(start));
                let start = Instant::now();
                let hash = frame_digest(frame);
                digest.push(us(start));
                let headers = [
                    ("X-Splat-Digest", format!("{hash:016x}")),
                    ("X-Splat-Quality", "full".to_string()),
                ];
                sink.clear();
                let start = Instant::now();
                let _ = splat_server::http::write_response(
                    &mut sink,
                    200,
                    &headers,
                    "application/octet-stream",
                    &encoded,
                );
                write.push(us(start));
            }
        }
    }
    metrics.percentile("server.parse_us", &parse, 0.5);
    metrics.percentile("server.encode_us", &encode, 0.5);
    metrics.percentile("server.digest_us", &digest, 0.5);
    metrics.percentile("server.write_us", &write, 0.5);
}

/// Client-side spans of served `POST /render` requests: the exchange,
/// with the time to the first byte and the body as children. Sets `server.ttfb_ms`, `server.body_ms` and the
/// generator's lateness.
pub fn http_layers(tracer: &mut Tracer, samples: &[RenderSample], metrics: &mut Metrics) {
    for (index, sample) in samples.iter().enumerate() {
        let id = index as u64;
        let request = tracer.record("server.request", None, id, sample.sent, sample.done);
        tracer.record(
            "server.ttfb",
            Some(request),
            id,
            sample.sent,
            sample.first_byte,
        );
        tracer.record(
            "server.body",
            Some(request),
            id,
            sample.first_byte,
            sample.done,
        );
    }
    metrics.percentile("server.ttfb_ms", &tracer.durations_ms("server.ttfb"), 0.5);
    metrics.percentile("server.body_ms", &tracer.durations_ms("server.body"), 0.5);
    let lateness: Vec<f64> = samples.iter().map(|s| s.timing.lateness_ms).collect();
    metrics.percentile("server.generator_lateness_ms_p99", &lateness, 0.99);
}

pub fn engine_deltas(metrics: &mut Metrics, before: &EngineStats, after: &EngineStats) {
    metrics.single(
        "engine.completed",
        (after.completed - before.completed) as f64,
        1,
    );
    metrics.single(
        "engine.rejected",
        (after.rejected - before.rejected) as f64,
        1,
    );
    metrics.single(
        "engine.degraded",
        (after.degraded - before.degraded) as f64,
        1,
    );
    metrics.single("engine.queue_high_water", after.queue_high_water as f64, 1);
    metrics.single(
        "engine.scene_hits",
        (after.scene_hits - before.scene_hits) as f64,
        1,
    );
}

pub fn server_deltas(metrics: &mut Metrics, before: &ServerStats, after: &ServerStats) {
    metrics.single(
        "server.requests",
        (after.requests - before.requests) as f64,
        1,
    );
    metrics.single("server.ok", (after.ok - before.ok) as f64, 1);
    metrics.single(
        "server.overloaded",
        (after.overloaded - before.overloaded) as f64,
        1,
    );
    metrics.single(
        "server.bytes_out",
        (after.bytes_out - before.bytes_out) as f64,
        1,
    );
}
