//! Workload definitions and seeded input generation.
//!
//! Everything the program under test receives — scenes, encoded scene
//! bytes, cameras and request bodies — is generated here from the
//! workload seed, so the same seed reproduces identical inputs.

use std::f32::consts::TAU;
use std::sync::Arc;

use splat_metrics::Fnv1a64;
use splat_scene::io::{decode_scene, encode_scene};
use splat_scene::{CameraTrajectory, Scene, SceneGenerator, SynthProfile};
use splat_types::{Camera, CameraIntrinsics, Vec3};

/// The benchmark's workloads, by the names later issues cite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Large splats: sorting and identification dominate, the regime
    /// GS-TG's tile grouping targets.
    RenderBigsplat,
    /// Many small splats: grouping saves no sorting, so GS-TG's extra
    /// identify cost and preprocessing dominate.
    RenderFinesplat,
    /// Open-loop single renders and back-to-back trajectory streams
    /// through the HTTP front door, sharing one engine queue.
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RenderBigsplat,
        Workload::RenderFinesplat,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RenderBigsplat => "render-bigsplat",
            Workload::RenderFinesplat => "render-finesplat",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|workload| workload.name() == name)
    }

    /// The scene regime of the workload.
    pub fn spec(self) -> SceneSpec {
        match self {
            Workload::RenderBigsplat => SceneSpec {
                splats: 20_000,
                scale_log_mean: -1.8,
                width: 320,
                height: 240,
                scenes: 4,
                views: 4,
            },
            Workload::RenderFinesplat => SceneSpec {
                splats: 80_000,
                scale_log_mean: -4.5,
                width: 160,
                height: 120,
                scenes: 4,
                views: 4,
            },
            // Sized so one frame renders in about 10 ms on one core.
            Workload::ServeMixed => SceneSpec {
                splats: 2_800,
                scale_log_mean: -3.0,
                width: 160,
                height: 120,
                scenes: 2,
                views: 8,
            },
        }
    }
}

/// Scene size and footprint of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneSpec {
    pub splats: usize,
    pub scale_log_mean: f32,
    pub width: u32,
    pub height: u32,
    /// Scenes, each a seeded draw: several independent scenes per run
    /// keep a frame's cost from depending on one draw of the seed.
    pub scenes: usize,
    /// Poses per scene.
    pub views: usize,
}

/// Vertical field of view of every camera.
pub const FOV_Y: f32 = 0.9;
/// The orbit `serve-mixed` cameras follow (the only trajectory kind the
/// wire accepts): around the synthetic slab from outside it, so no splat
/// sits next to a camera and a frame's cost does not hang on a few near
/// splats. The render workloads sweep laterally in front of the slab.
pub const ORBIT_CENTER: [f32; 3] = [0.0, 0.0, 16.0];
pub const ORBIT_RADIUS: f32 = 18.0;
pub const ORBIT_HEIGHT: f32 = 2.0;

/// One workload's generated inputs.
pub struct Inputs {
    pub workload: Workload,
    pub scenes: Vec<Arc<Scene>>,
    /// `.splat` bytes of each scene (what `serve-mixed` uploads).
    pub encoded: Vec<Vec<u8>>,
    /// The camera path shared by every scene of the workload.
    pub trajectory: CameraTrajectory,
    /// Eye and target of each pose, as a `POST /render` body names them.
    pub poses: Vec<(Vec3, Vec3)>,
    pub cameras: Vec<Camera>,
    /// FNV-1a over the scene bytes and the poses, printed so a rerun can
    /// show it received identical inputs.
    pub digest: u64,
}

/// SplitMix64 step: decorrelates per-scene seeds derived from one seed.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let spec = workload.spec();
        let profile = SynthProfile {
            scale_log_mean: spec.scale_log_mean,
            ..SynthProfile::default()
        }
        .with_count(spec.splats);
        // The program only ever sees a scene as its `.splat` bytes, and
        // decoding re-normalizes rotations, so the decoded scene is the
        // canonical one every workload renders and references.
        let encoded: Vec<Vec<u8>> = (0..spec.scenes)
            .map(|index| {
                let scene_seed = mix(seed ^ mix(index as u64 + 1));
                let name = format!("{}-{index}", workload.name());
                encode_scene(&SceneGenerator::new(profile.clone(), scene_seed).generate(
                    name,
                    spec.width,
                    spec.height,
                ))
            })
            .collect();
        let scenes: Vec<Arc<Scene>> = encoded
            .iter()
            .map(|bytes| Arc::new(decode_scene(bytes).expect("generated scenes round-trip")))
            .collect();
        let intrinsics = CameraIntrinsics::from_fov_y(FOV_Y, spec.width, spec.height);
        let sweep_extent = profile.lateral_extent * 0.25;
        let sweep_focus = (profile.depth_range.0 + profile.depth_range.1) * 0.4;
        let (trajectory, poses) = match workload {
            Workload::ServeMixed => (
                CameraTrajectory::orbit(
                    intrinsics,
                    orbit_center(),
                    ORBIT_RADIUS,
                    ORBIT_HEIGHT,
                    spec.views,
                ),
                (0..spec.views)
                    .map(|index| (orbit_eye(index, spec.views), orbit_center()))
                    .collect(),
            ),
            _ => (
                CameraTrajectory::lateral_sweep(intrinsics, sweep_extent, sweep_focus, spec.views),
                (0..spec.views)
                    .map(|index| sweep_pose(index, spec.views, sweep_extent, sweep_focus))
                    .collect::<Vec<_>>(),
            ),
        };
        let cameras: Vec<Camera> = poses
            .iter()
            .map(|&(eye, target)| Camera::look_at(eye, target, Vec3::Y, intrinsics))
            .collect();
        let mut hasher = Fnv1a64::new();
        for bytes in &encoded {
            hasher.write_u64(bytes.len() as u64);
            hasher.write(bytes);
        }
        for (eye, target) in &poses {
            for value in [eye.x, eye.y, eye.z, target.x, target.y, target.z] {
                hasher.write_f32(value);
            }
        }
        Self {
            workload,
            scenes,
            encoded,
            trajectory,
            poses,
            cameras,
            digest: hasher.finish(),
        }
    }

    /// `POST /render` body for pose `pose` of a registered scene.
    pub fn render_body(&self, scene_id: u64, pose: usize) -> String {
        let (eye, target) = self.poses[pose];
        let spec = self.workload.spec();
        format!(
            "{{\"scene_id\":{scene_id},\"camera\":{{\"eye\":[{},{},{}],\"target\":[{},{},{}],\
             \"up\":[0,1,0],\"fov_y\":{FOV_Y},\"width\":{},\"height\":{}}}}}",
            eye.x, eye.y, eye.z, target.x, target.y, target.z, spec.width, spec.height,
        )
    }

    /// `POST /trajectories` body: the workload's orbit of one scene.
    pub fn trajectory_body(&self, scene_id: u64) -> String {
        let [cx, cy, cz] = ORBIT_CENTER;
        let spec = self.workload.spec();
        format!(
            "{{\"scene_id\":{scene_id},\"trajectory\":{{\"kind\":\"orbit\",\"center\":[{cx},{cy},{cz}],\
             \"radius\":{ORBIT_RADIUS},\"elevation\":{ORBIT_HEIGHT},\"frames\":{},\
             \"fov_y\":{FOV_Y},\"width\":{},\"height\":{}}}}}",
            spec.views, spec.width, spec.height,
        )
    }
}

pub fn orbit_center() -> Vec3 {
    Vec3::new(ORBIT_CENTER[0], ORBIT_CENTER[1], ORBIT_CENTER[2])
}

/// Eye of orbit pose `index`, computed exactly as
/// [`CameraTrajectory::orbit`] does.
fn orbit_eye(index: usize, views: usize) -> Vec3 {
    let angle = TAU * index as f32 / views as f32;
    orbit_center()
        + Vec3::new(
            ORBIT_RADIUS * angle.cos(),
            ORBIT_HEIGHT,
            ORBIT_RADIUS * angle.sin(),
        )
}

/// Eye and target of sweep pose `index`, computed exactly as
/// [`CameraTrajectory::lateral_sweep`] does.
fn sweep_pose(index: usize, views: usize, extent: f32, focus: f32) -> (Vec3, Vec3) {
    let t = index as f32 / (views - 1) as f32;
    let x = (t * 2.0 - 1.0) * extent;
    (Vec3::new(x, 0.0, 0.0), Vec3::new(x * 0.3, 0.0, focus))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Inputs::generate(Workload::ServeMixed, 7);
        let b = Inputs::generate(Workload::ServeMixed, 7);
        let c = Inputs::generate(Workload::ServeMixed, 8);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.encoded, b.encoded);
        assert_ne!(a.digest, c.digest);
        assert_eq!(a.scenes.len(), 2);
        assert_ne!(a.encoded[0], a.encoded[1]);
    }

    #[test]
    fn explicit_poses_match_the_trajectory_builders() {
        for workload in Workload::ALL {
            let inputs = Inputs::generate(workload, 1);
            let built: Vec<Camera> = inputs.trajectory.cameras().collect();
            assert_eq!(built, inputs.cameras, "{}", workload.name());
        }
    }

    #[test]
    fn request_bodies_parse_to_the_workload_cameras() {
        let inputs = Inputs::generate(Workload::ServeMixed, 3);
        for (pose, camera) in inputs.cameras.iter().enumerate() {
            let body = splat_server::parse_json(&inputs.render_body(9, pose)).expect("JSON");
            let request = splat_server::wire::parse_render_request(&body).expect("request");
            assert_eq!(request.scene_id.raw(), 9);
            assert_eq!(&request.camera, camera);
        }
        let body = splat_server::parse_json(&inputs.trajectory_body(4)).expect("JSON");
        let request = splat_server::wire::parse_trajectory_request(&body).expect("request");
        assert_eq!(request.trajectory, inputs.trajectory);
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("render"), None);
    }
}
