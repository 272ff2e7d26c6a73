//! Engine-level measurement: closed-loop frames through both backends,
//! in-process trajectory streams, and the traced stage replay.

use std::sync::Arc;
use std::time::Instant;

use gstg::sort::sort_groups_with;
use gstg::{
    identify_groups_into, rasterize_groups_into_with, GroupAssignments, GroupEntry, GstgConfig,
};
use splat_core::{FrameArena, Framebuffer, HasExecution, StageCounts};
use splat_engine::{
    AdmissionPolicy, Backend, Engine, EngineStats, QualityPolicy, QualityTier, SceneId,
    SubmitRequest,
};
use splat_render::sort::sort_tiles_with;
use splat_render::{
    identify_tiles_into, preprocess_into, RenderConfig, Renderer, TileAssignments, TileGrid,
};
use splat_scene::{CameraTrajectory, Scene};
use splat_server::{frame_digest, ServerConfig};
use splat_types::{Camera, Priority};

use crate::report::Tally;
use crate::trace::Tracer;

/// An engine at the production serving policy (`splat-serve`'s
/// defaults: degrade under pressure, queue capacity 256, reject when
/// full) and the production pipeline config of its backend.
pub fn production_engine(backend: Backend, workers: usize) -> Arc<Engine> {
    let engine = Engine::builder()
        .backend(backend)
        .render_config(RenderConfig::default())
        .gstg_config(GstgConfig::paper_default())
        .threads(1)
        .workers(workers)
        .queue_capacity(splat_engine::DEFAULT_QUEUE_CAPACITY)
        .admission(AdmissionPolicy::RejectWhenFull)
        .quality(QualityPolicy::degrade_default())
        .build()
        .expect("the production engine configuration is valid");
    Arc::new(engine)
}

/// A single-worker engine per backend with every scene registered once.
pub struct EnginePair {
    pub gstg: Arc<Engine>,
    pub baseline: Arc<Engine>,
    pub gstg_ids: Vec<SceneId>,
    pub baseline_ids: Vec<SceneId>,
    /// Time of each `register_scene` call, in ms.
    pub register_ms: Vec<f64>,
}

impl EnginePair {
    pub fn start(scenes: &[Arc<Scene>]) -> Self {
        let gstg = production_engine(Backend::Gstg, 1);
        let baseline = production_engine(Backend::Baseline, 1);
        let (mut gstg_ids, mut baseline_ids, mut register_ms) =
            (Vec::new(), Vec::new(), Vec::new());
        for scene in scenes {
            for (engine, ids) in [(&gstg, &mut gstg_ids), (&baseline, &mut baseline_ids)] {
                let start = Instant::now();
                let id = engine
                    .register_scene(Arc::clone(scene))
                    .expect("generated scenes are non-empty");
                register_ms.push(start.elapsed().as_secs_f64() * 1e3);
                ids.push(id);
            }
        }
        Self {
            gstg,
            baseline,
            gstg_ids,
            baseline_ids,
            register_ms,
        }
    }

    pub fn engine(&self, backend: Backend) -> (&Engine, &[SceneId]) {
        match backend {
            Backend::Baseline => (&self.baseline, &self.baseline_ids),
            _ => (&self.gstg, &self.gstg_ids),
        }
    }

    pub fn stats(&self) -> (EngineStats, EngineStats) {
        (self.gstg.stats(), self.baseline.stats())
    }

    pub fn footprint_bytes(&self) -> usize {
        self.gstg.footprint_bytes() + self.baseline.footprint_bytes()
    }
}

/// Reference frames, rendered before anything is timed by the
/// allocating baseline `Renderer` — a path independent of the engines'
/// recycled sessions. Indexed `[scene][pose]`.
pub struct References {
    /// The baseline at the configuration GS-TG is lossless against
    /// (`GstgConfig::equivalent_baseline`): every GS-TG frame, engine or
    /// served, must equal these bit for bit.
    pub frames: Vec<Vec<Framebuffer>>,
    pub gstg: Vec<Vec<u64>>,
    /// The baseline at its production config, for the baseline engine.
    pub baseline: Vec<Vec<u64>>,
}

impl References {
    pub fn render(scenes: &[Arc<Scene>], cameras: &[Camera]) -> Self {
        let equivalent = Renderer::new(GstgConfig::paper_default().equivalent_baseline());
        let production = Renderer::new(RenderConfig::default());
        let render_all = |renderer: &Renderer| -> Vec<Vec<Framebuffer>> {
            scenes
                .iter()
                .map(|scene| {
                    cameras
                        .iter()
                        .map(|camera| renderer.render(scene, camera).image)
                        .collect()
                })
                .collect()
        };
        let digests = |frames: &[Vec<Framebuffer>]| -> Vec<Vec<u64>> {
            frames
                .iter()
                .map(|scene| scene.iter().map(frame_digest).collect())
                .collect()
        };
        let frames = render_all(&equivalent);
        Self {
            gstg: digests(&frames),
            baseline: digests(&render_all(&production)),
            frames,
        }
    }

    pub fn digest(&self, backend: Backend, scene: usize, pose: usize) -> u64 {
        match backend {
            Backend::Baseline => self.baseline[scene][pose],
            _ => self.gstg[scene][pose],
        }
    }

    /// Slots where the two production configs render different pixels
    /// (the baseline's AABB tile test admits splats GS-TG's ellipse test
    /// leaves out); informational, not a losslessness failure.
    pub fn differing_production_slots(&self) -> usize {
        self.gstg
            .iter()
            .flatten()
            .zip(self.baseline.iter().flatten())
            .filter(|(a, b)| a != b)
            .count()
    }
}

/// Client-observed frame times of the closed loop, per backend.
#[derive(Debug, Default)]
pub struct FrameSamples {
    pub gstg_ms: Vec<f64>,
    pub baseline_ms: Vec<f64>,
    /// GS-TG frames that failed or did not match their reference.
    pub gstg_failed: usize,
    /// Engine frame time of every traced frame, in replay order.
    pub traced_ms: Vec<f64>,
}

/// One frame through `submit` then `wait`, verified against the
/// reference digest; with a tracer, under an `engine.frame` span with
/// `engine.submit` and `engine.wait` children. Returns the wall time and
/// the image, which is `None` when the frame failed or differed from the
/// reference.
fn engine_frame(
    engine: &Engine,
    id: SceneId,
    camera: Camera,
    expected: u64,
    tally: &mut Tally,
    trace: Option<(&mut Tracer, u64)>,
) -> (f64, Option<Framebuffer>) {
    let start = Instant::now();
    let submit = || engine.submit(SubmitRequest::new(id, camera));
    let output = match trace {
        None => submit().and_then(|handle| handle.wait()),
        Some((tracer, frame)) => {
            let span = tracer.open("engine.frame", None, frame);
            let output = tracer
                .time("engine.submit", Some(span), frame, submit)
                .and_then(|handle| tracer.time("engine.wait", Some(span), frame, || handle.wait()));
            tracer.close(span);
            output
        }
    };
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    match output {
        Ok(output) => {
            let digest = frame_digest(&output.image);
            let ok = digest == expected;
            tally.op(ok, || {
                format!(
                    "{}: digest {digest:016x} != reference {expected:016x}",
                    engine.backend()
                )
            });
            (elapsed, ok.then_some(output.image))
        }
        Err(error) => {
            tally.op(false, || format!("{}: {error}", engine.backend()));
            (elapsed, None)
        }
    }
}

/// Renders every pose of every scene once on both engines (not timed),
/// so lazily grown buffers reach their steady-state size.
pub fn warm_up(pair: &EnginePair, cameras: &[Camera], refs: &References, tally: &mut Tally) -> u64 {
    let mut frames = 0;
    for scene in 0..refs.gstg.len() {
        for (pose, camera) in cameras.iter().enumerate() {
            for backend in [Backend::Gstg, Backend::Baseline] {
                let (engine, ids) = pair.engine(backend);
                let expected = refs.digest(backend, scene, pose);
                engine_frame(engine, ids[scene], *camera, expected, tally, None);
                frames += 1;
            }
        }
    }
    frames
}

/// Closed loop, one frame in flight: cycles scenes and poses, and
/// alternates which backend goes first so neither always follows the
/// other. With a replay, every frame is also replayed stage by stage
/// under spans and its digest compared with the engine frame's.
pub fn closed_loop(
    pair: &EnginePair,
    scenes: &[Arc<Scene>],
    cameras: &[Camera],
    refs: &References,
    deadline: Instant,
    tally: &mut Tally,
    mut replay: Option<(&mut Replay, &mut Tracer)>,
) -> FrameSamples {
    let mut samples = FrameSamples::default();
    let scenes_len = scenes.len();
    let slots = scenes_len * cameras.len();
    let mut iteration = 0usize;
    while Instant::now() < deadline || iteration == 0 {
        let slot = iteration % slots;
        let (scene, pose) = (slot % scenes_len, slot / scenes_len % cameras.len());
        let order = if iteration.is_multiple_of(2) {
            [Backend::Gstg, Backend::Baseline]
        } else {
            [Backend::Baseline, Backend::Gstg]
        };
        for backend in order {
            let (engine, ids) = pair.engine(backend);
            let frame_id = (iteration * 2 + usize::from(backend == Backend::Baseline)) as u64;
            let trace = replay.as_mut().map(|(_, tracer)| (&mut **tracer, frame_id));
            let expected = refs.digest(backend, scene, pose);
            let (ms, image) =
                engine_frame(engine, ids[scene], cameras[pose], expected, tally, trace);
            match backend {
                Backend::Baseline => samples.baseline_ms.push(ms),
                _ => {
                    samples.gstg_ms.push(ms);
                    samples.gstg_failed += usize::from(image.is_none());
                }
            }
            if let Some((replayer, tracer)) = replay.as_mut() {
                let digest =
                    replayer.replay(backend, &scenes[scene], &cameras[pose], tracer, frame_id);
                let engine_digest = image.as_ref().map(frame_digest);
                tally.op(engine_digest == Some(digest), || {
                    format!("traced {backend} replay digest differs from the engine frame")
                });
                samples.traced_ms.push(ms);
            }
        }
        iteration += 1;
    }
    samples
}

/// In-process trajectory streams (`Engine::stream_trajectory` with the
/// serving window), back to back until the deadline.
#[derive(Debug, Default)]
pub struct StreamSamples {
    pub first_frame_ms: Vec<f64>,
    pub gaps_ms: Vec<f64>,
    pub fps: Vec<f64>,
    pub streams: u64,
    pub frames: u64,
}

impl StreamSamples {
    /// Records one stream: `sent` is when it was requested, `arrivals`
    /// when each frame arrived.
    pub fn record(&mut self, sent: Instant, arrivals: &[Instant]) {
        let (Some(first), Some(last)) = (arrivals.first(), arrivals.last()) else {
            return;
        };
        self.streams += 1;
        self.frames += arrivals.len() as u64;
        self.first_frame_ms
            .push(first.duration_since(sent).as_secs_f64() * 1e3);
        self.gaps_ms.extend(
            arrivals
                .windows(2)
                .map(|pair| pair[1].duration_since(pair[0]).as_secs_f64() * 1e3),
        );
        let seconds = last.duration_since(sent).as_secs_f64();
        if seconds > 0.0 {
            self.fps.push(arrivals.len() as f64 / seconds);
        }
    }
}

/// Streams cycle through the scenes `ids` names.
pub fn stream_loop(
    engine: &Engine,
    ids: &[SceneId],
    trajectory: &CameraTrajectory,
    refs: &References,
    deadline: Instant,
    tally: &mut Tally,
) -> StreamSamples {
    // The front door's in-flight window, so both stream paths match.
    let window = ServerConfig::default().stream_window;
    let mut samples = StreamSamples::default();
    let mut arrivals = Vec::with_capacity(trajectory.len());
    while Instant::now() < deadline || samples.streams == 0 {
        let scene = samples.streams as usize % ids.len();
        let (id, refs) = (ids[scene], &refs.gstg[scene]);
        arrivals.clear();
        let sent = Instant::now();
        let mut stream = match engine.stream_trajectory(id, trajectory, Priority::Normal, window) {
            Ok(stream) => stream,
            Err(error) => {
                tally.op(false, || format!("stream refused: {error}"));
                break;
            }
        };
        let mut pose = 0;
        while let Some((tier, frame)) = stream.next_frame_tiered() {
            arrivals.push(Instant::now());
            let expected = refs.get(pose).copied();
            match frame {
                Ok(output) => {
                    let digest = frame_digest(&output.image);
                    tally.op(
                        tier == Some(QualityTier::Full) && Some(digest) == expected,
                        || format!("stream frame {pose}: tier {tier:?}, digest {digest:016x}"),
                    );
                }
                Err(error) => tally.op(false, || format!("stream frame {pose}: {error}")),
            }
            pose += 1;
        }
        samples.record(sent, &arrivals);
    }
    samples
}

/// Recycled stage scratch for replaying frames outside the engine: the
/// same session types the engine's workers use, so the replay runs at
/// the steady state.
pub struct Replay {
    baseline_config: RenderConfig,
    baseline_renderer: Renderer,
    baseline_arena: FrameArena<u32>,
    tiles: TileAssignments,
    gstg_config: GstgConfig,
    gstg_arena: FrameArena<GroupEntry>,
    groups: GroupAssignments,
    tile_list: Vec<u32>,
    /// Per-frame stage counts of the last replay of each backend.
    pub baseline_counts: Vec<StageCounts>,
    pub gstg_counts: Vec<StageCounts>,
    /// Per replayed frame, the time of its four stages together in ms.
    pub stages_ms: Vec<f64>,
}

impl Replay {
    pub fn new() -> Self {
        let baseline_config = RenderConfig::default();
        Self {
            baseline_config,
            baseline_renderer: Renderer::new(baseline_config),
            baseline_arena: FrameArena::new(),
            tiles: TileAssignments::empty(),
            gstg_config: GstgConfig::paper_default(),
            gstg_arena: FrameArena::new(),
            groups: GroupAssignments::empty(),
            tile_list: Vec::new(),
            baseline_counts: Vec::new(),
            gstg_counts: Vec::new(),
            stages_ms: Vec::new(),
        }
    }

    /// Replays one frame stage by stage under spans named
    /// `<layer>.<stage>`, children of a `<layer>.frame` span; returns the
    /// frame digest.
    pub fn replay(
        &mut self,
        backend: Backend,
        scene: &Scene,
        camera: &Camera,
        tracer: &mut Tracer,
        frame_id: u64,
    ) -> u64 {
        match backend {
            Backend::Baseline => self.replay_baseline(scene, camera, tracer, frame_id),
            _ => self.replay_gstg(scene, camera, tracer, frame_id),
        }
    }

    fn replay_baseline(
        &mut self,
        scene: &Scene,
        camera: &Camera,
        tracer: &mut Tracer,
        frame: u64,
    ) -> u64 {
        let config = self.baseline_config;
        let arena = &mut self.baseline_arena;
        let tiles = &mut self.tiles;
        let renderer = &self.baseline_renderer;
        let mut counts = StageCounts::new();
        let root = tracer.open("render.frame", None, frame);
        tracer.time("render.preprocess", Some(root), frame, || {
            preprocess_into(scene, camera, &config, &mut counts, &mut arena.projected);
        });
        tracer.time("render.identify", Some(root), frame, || {
            let grid = TileGrid::new(camera.width(), camera.height(), config.tile_size);
            identify_tiles_into(
                &arena.projected,
                grid,
                config.boundary,
                config.prepass,
                &mut counts,
                &mut arena.csr,
                tiles,
            );
        });
        tracer.time("render.sort", Some(root), frame, || {
            sort_tiles_with(tiles, &arena.projected, &mut counts, &mut arena.keys);
        });
        tracer.time("render.raster", Some(root), frame, || {
            counts += renderer.rasterize_into(
                &arena.projected,
                tiles,
                camera,
                &mut arena.framebuffer,
                &mut arena.span,
            );
        });
        tracer.close(root);
        arena.span.take_build_time();
        self.baseline_counts.push(counts);
        self.stages_ms.push(tracer.duration_ms(root));
        frame_digest(&arena.framebuffer)
    }

    fn replay_gstg(
        &mut self,
        scene: &Scene,
        camera: &Camera,
        tracer: &mut Tracer,
        frame: u64,
    ) -> u64 {
        let config = self.gstg_config;
        let render_config = config.equivalent_baseline();
        let arena = &mut self.gstg_arena;
        let groups = &mut self.groups;
        let tile_list = &mut self.tile_list;
        let mut counts = StageCounts::new();
        let root = tracer.open("gstg.frame", None, frame);
        tracer.time("gstg.preprocess", Some(root), frame, || {
            preprocess_into(
                scene,
                camera,
                &render_config,
                &mut counts,
                &mut arena.projected,
            );
        });
        tracer.time("gstg.identify", Some(root), frame, || {
            identify_groups_into(
                &arena.projected,
                camera.width(),
                camera.height(),
                &config,
                &mut counts,
                &mut arena.csr,
                groups,
            );
        });
        tracer.time("gstg.sort", Some(root), frame, || {
            sort_groups_with(groups, &arena.projected, &mut counts, &mut arena.keys);
        });
        tracer.time("gstg.raster", Some(root), frame, || {
            counts += rasterize_groups_into_with(
                &arena.projected,
                groups,
                camera.width(),
                camera.height(),
                splat_types::Rgb::BLACK,
                config.threads(),
                config.simd(),
                config.span(),
                &mut arena.framebuffer,
                tile_list,
                &mut arena.span,
            );
        });
        tracer.close(root);
        arena.span.take_build_time();
        self.gstg_counts.push(counts);
        self.stages_ms.push(tracer.duration_ms(root));
        frame_digest(&arena.framebuffer)
    }
}
