//! Preprocessing stage: feature computation and culling.
//!
//! For every splat the stage computes the quantities the rest of the
//! pipeline consumes (the paper's `D`, `2D_XY`, `2D_Cov` and `G_RGB`):
//!
//! * view-space depth,
//! * projected 2D mean in pixel coordinates,
//! * projected 2D covariance via the EWA splatting approximation
//!   `Σ' = J W Σ Wᵀ Jᵀ` plus a 0.3-pixel low-pass term,
//! * view-dependent RGB color evaluated from the spherical harmonics,
//!
//! and removes splats that are outside the view frustum, behind the near
//! plane, fully transparent, or project to a degenerate covariance.

use crate::config::{RenderConfig, ALPHA_CULL_THRESHOLD};
use crate::stats::StageCounts;
use splat_core::SimdMode;
use splat_scene::{Scene, SceneSoA};
use splat_types::{eval_color, Camera, Gaussian3d, Mat2, Mat3, Vec3};

pub use splat_core::ProjectedGaussian;

/// Limit applied to the view-space lateral offsets before computing the
/// projection Jacobian, mirroring the reference CUDA implementation's
/// clamping of `t.x/t.z` and `t.y/t.z` to 1.3× the frustum tangent.
const JACOBIAN_TANGENT_GUARD: f32 = 1.3;

/// Runs preprocessing over a scene for a camera.
///
/// The returned vector preserves scene order (ascending `index`), which the
/// sorting stages rely on for deterministic tie-breaking. Counters for the
/// stage are accumulated into `counts`.
pub fn preprocess(
    scene: &Scene,
    camera: &Camera,
    config: &RenderConfig,
    counts: &mut StageCounts,
) -> Vec<ProjectedGaussian> {
    let mut projected = Vec::new();
    preprocess_into(scene, camera, config, counts, &mut projected);
    projected
}

/// In-place variant of [`preprocess`] used by the render sessions: `out` is
/// cleared and refilled, retaining its allocation. The capacity is reserved
/// for the full scene up front, so a reused buffer never grows again.
///
/// At full precision the loop iterates the scene's [`SceneSoA`] component
/// arrays (built once per scene, lazily) rather than the AoS records; with
/// a wide [`SimdMode`] the view transform additionally runs over fixed-size
/// lane chunks. Both choices are bit-identical to the record-wise scalar
/// loop — the SoA view holds the same values and the lane kernels perform
/// the same scalar operations in the same order — so precision, SIMD mode
/// and storage layout never change a projected splat or a counter.
pub fn preprocess_into(
    scene: &Scene,
    camera: &Camera,
    config: &RenderConfig,
    counts: &mut StageCounts,
    out: &mut Vec<ProjectedGaussian>,
) {
    out.clear();
    out.reserve(scene.len());
    let precision = config.precision;
    if precision == splat_types::Precision::Full {
        preprocess_soa_into(scene.soa(), camera, config.exec.simd, counts, out);
        return;
    }
    let projected = out;
    for (index, gaussian_ref) in scene.iter().enumerate() {
        counts.input_gaussians += 1;
        // Reduced precision re-quantizes every parameter, so the splat is
        // converted into a stack temporary first (the SoA fast path above
        // keeps full-precision rendering allocation-free).
        let storage = gaussian_ref.to_precision(precision);
        let gaussian = &storage;

        // Opacity culling: fully transparent splats can never contribute.
        if gaussian.opacity() < ALPHA_CULL_THRESHOLD {
            counts.culled_gaussians += 1;
            continue;
        }
        // Frustum culling with the splat's 3σ bounding sphere.
        if !camera.is_in_frustum(gaussian.position(), gaussian.bounding_radius()) {
            counts.culled_gaussians += 1;
            continue;
        }

        let view = camera.to_view(gaussian.position());
        // No cached covariance here: re-quantized parameters differ from
        // the full-precision splat the scene's SoA cache was built from.
        let splat = project_visible_splat(
            camera,
            index as u32,
            view,
            gaussian.position(),
            gaussian.scale(),
            gaussian.rotation(),
            None,
            gaussian.opacity(),
            gaussian.sh().degree(),
            gaussian.sh().coefficients(),
            counts,
        );
        if let Some(splat) = splat {
            projected.push(splat);
        }
    }
}

/// Projects every splat of a SoA view, dispatching on the SIMD mode.
fn preprocess_soa_into(
    soa: &SceneSoA,
    camera: &Camera,
    simd: SimdMode,
    counts: &mut StageCounts,
    out: &mut Vec<ProjectedGaussian>,
) {
    match simd {
        SimdMode::Scalar => {
            for i in 0..soa.len() {
                counts.input_gaussians += 1;
                project_soa_splat(soa, i, None, camera, counts, out);
            }
        }
        SimdMode::Wide8 => preprocess_soa_chunked::<8>(soa, camera, counts, out),
    }
}

/// The chunked projection loop: the view transform runs `W` lanes at a
/// time straight from the SoA position arrays
/// ([`Camera::to_view_lanes`], bit-identical to [`Camera::to_view`]); the
/// branchy per-splat culls and covariance math then consume the
/// precomputed view per lane. The trailing `len % W` splats take the
/// scalar path.
fn preprocess_soa_chunked<const W: usize>(
    soa: &SceneSoA,
    camera: &Camera,
    counts: &mut StageCounts,
    out: &mut Vec<ProjectedGaussian>,
) {
    let n = soa.len();
    let mut xs = [0.0f32; W];
    let mut ys = [0.0f32; W];
    let mut zs = [0.0f32; W];
    let mut base = 0usize;
    while base + W <= n {
        xs.copy_from_slice(&soa.pos_x()[base..base + W]);
        ys.copy_from_slice(&soa.pos_y()[base..base + W]);
        zs.copy_from_slice(&soa.pos_z()[base..base + W]);
        let (vx, vy, vz) = camera.to_view_lanes(&xs, &ys, &zs);
        for lane in 0..W {
            counts.input_gaussians += 1;
            let view = Vec3::new(vx[lane], vy[lane], vz[lane]);
            project_soa_splat(soa, base + lane, Some(view), camera, counts, out);
        }
        base += W;
    }
    for i in base..n {
        counts.input_gaussians += 1;
        project_soa_splat(soa, i, None, camera, counts, out);
    }
}

/// Culls and projects one splat read out of the SoA arrays. `view_hint`
/// carries a chunk-precomputed view-space position (bit-identical to
/// computing it here).
#[inline]
fn project_soa_splat(
    soa: &SceneSoA,
    i: usize,
    view_hint: Option<Vec3>,
    camera: &Camera,
    counts: &mut StageCounts,
    out: &mut Vec<ProjectedGaussian>,
) {
    let opacity = soa.opacity()[i];
    // Opacity culling: fully transparent splats can never contribute.
    if opacity < ALPHA_CULL_THRESHOLD {
        counts.culled_gaussians += 1;
        return;
    }
    let position = soa.position(i);
    let scale = soa.scale(i);
    // Frustum culling with the splat's 3σ bounding sphere.
    if !camera.is_in_frustum(position, Gaussian3d::bounding_radius_of(scale)) {
        counts.culled_gaussians += 1;
        return;
    }
    let view = view_hint.unwrap_or_else(|| camera.to_view(position));
    let splat = project_visible_splat(
        camera,
        i as u32,
        view,
        position,
        scale,
        soa.rotation(i),
        Some(soa.covariance(i)),
        opacity,
        soa.sh_degree(i),
        soa.sh_coefficients(i),
        counts,
    );
    if let Some(splat) = splat {
        out.push(splat);
    }
}

/// The shared post-cull projection tail: depth/pixel mapping, the EWA
/// covariance projection and SH color evaluation. Every caller reaches
/// this with the same scalar values, so the AoS and SoA paths agree
/// bit-for-bit.
///
/// `cov3d_hint` carries the scene's cached view-independent 3D covariance
/// ([`SceneSoA::covariance`]); `None` recomputes it from `scale` and
/// `rotation`, which the cache stores bit-exactly, so the hint never
/// changes a projected splat.
#[allow(clippy::too_many_arguments)]
#[inline]
fn project_visible_splat(
    camera: &Camera,
    index: u32,
    view: Vec3,
    position: Vec3,
    scale: Vec3,
    rotation: splat_types::Quat,
    cov3d_hint: Option<Mat3>,
    opacity: f32,
    sh_degree: usize,
    sh_coefficients: &[splat_types::Rgb],
    counts: &mut StageCounts,
) -> Option<ProjectedGaussian> {
    let depth = -view.z;
    // Non-finite depths (NaN/∞ positions that slip past the frustum
    // test, whose rejecting comparisons are all false for NaN) are
    // culled here: every depth reaching the sort stage is finite, which
    // is what lets the key sort order splats without a NaN branch and
    // keeps `is_sorted_by_depth` consistent with the sort.
    if !depth.is_finite() || depth <= camera.near() {
        counts.culled_gaussians += 1;
        return None;
    }

    let Some(mean) = camera.view_to_pixel(view) else {
        counts.culled_gaussians += 1;
        return None;
    };

    // EWA covariance projection with the reference implementation's
    // tangent clamp on the Jacobian evaluation point.
    let intr = camera.intrinsics();
    let limit_x = JACOBIAN_TANGENT_GUARD * (0.5 * intr.fov_x()).tan();
    let limit_y = JACOBIAN_TANGENT_GUARD * (0.5 * intr.fov_y()).tan();
    let clamped_view = Vec3::new(
        (view.x / depth).clamp(-limit_x, limit_x) * depth,
        (view.y / depth).clamp(-limit_y, limit_y) * depth,
        view.z,
    );
    let jacobian = camera.projection_jacobian(clamped_view);
    let view_rot = camera.view_rotation();
    let t = jacobian * view_rot;
    let cov3d = cov3d_hint.unwrap_or_else(|| Gaussian3d::covariance_of(scale, rotation));
    let cov2d_full = t * cov3d * t.transpose();
    // Low-pass filter: guarantee a minimum footprint of ~0.3 px so
    // sub-pixel splats still contribute (as in the reference code).
    let cov = cov2d_full.upper_left_2x2() + Mat2::from_symmetric(0.3, 0.0, 0.3);

    let Ok(inv_cov) = cov.inverse() else {
        counts.culled_gaussians += 1;
        return None;
    };
    if cov.determinant() <= 0.0 {
        counts.culled_gaussians += 1;
        return None;
    }

    let color = eval_color(
        sh_degree,
        sh_coefficients,
        (position - camera.position()).normalized(),
    );

    counts.visible_gaussians += 1;
    Some(ProjectedGaussian {
        index,
        depth,
        mean,
        cov,
        inv_cov,
        opacity,
        color,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BoundaryMethod;
    use splat_types::{CameraIntrinsics, Gaussian3d, Quat, Vec3};

    fn camera() -> Camera {
        Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 640, 480),
        )
    }

    fn splat(pos: Vec3, opacity: f32, scale: f32) -> Gaussian3d {
        Gaussian3d::builder()
            .position(pos)
            .scale(Vec3::splat(scale))
            .rotation(Quat::IDENTITY)
            .opacity(opacity)
            .base_color([0.5, 0.6, 0.7])
            .build()
    }

    fn run(gaussians: Vec<Gaussian3d>) -> (Vec<ProjectedGaussian>, StageCounts) {
        let scene = Scene::new("t", 640, 480, gaussians);
        let mut counts = StageCounts::new();
        let projected = preprocess(
            &scene,
            &camera(),
            &RenderConfig::new(16, BoundaryMethod::Aabb),
            &mut counts,
        );
        (projected, counts)
    }

    #[test]
    fn visible_splat_is_projected_to_image_center() {
        let (projected, counts) = run(vec![splat(Vec3::new(0.0, 0.0, 5.0), 0.9, 0.1)]);
        assert_eq!(projected.len(), 1);
        assert_eq!(counts.visible_gaussians, 1);
        assert_eq!(counts.culled_gaussians, 0);
        let p = &projected[0];
        assert!((p.mean.x - 320.0).abs() < 1e-3);
        assert!((p.mean.y - 240.0).abs() < 1e-3);
        assert!((p.depth - 5.0).abs() < 1e-3);
    }

    #[test]
    fn behind_camera_splat_is_culled() {
        let (projected, counts) = run(vec![splat(Vec3::new(0.0, 0.0, -5.0), 0.9, 0.1)]);
        assert!(projected.is_empty());
        assert_eq!(counts.culled_gaussians, 1);
    }

    #[test]
    fn transparent_splat_is_culled() {
        let (projected, counts) = run(vec![splat(Vec3::new(0.0, 0.0, 5.0), 0.001, 0.1)]);
        assert!(projected.is_empty());
        assert_eq!(counts.culled_gaussians, 1);
    }

    #[test]
    fn far_outside_frustum_is_culled() {
        let (projected, _) = run(vec![splat(Vec3::new(500.0, 0.0, 5.0), 0.9, 0.1)]);
        assert!(projected.is_empty());
    }

    #[test]
    fn covariance_shrinks_with_distance() {
        let (projected, _) = run(vec![
            splat(Vec3::new(0.0, 0.0, 3.0), 0.9, 0.2),
            splat(Vec3::new(0.0, 0.0, 12.0), 0.9, 0.2),
        ]);
        assert_eq!(projected.len(), 2);
        let near_extent = projected[0].cov.at(0, 0);
        let far_extent = projected[1].cov.at(0, 0);
        assert!(
            near_extent > far_extent,
            "near {near_extent} far {far_extent}"
        );
    }

    #[test]
    fn low_pass_guarantees_minimum_footprint() {
        // A microscopically small splat still gets a ≥0.3 px² covariance.
        let (projected, _) = run(vec![splat(Vec3::new(0.0, 0.0, 20.0), 0.9, 1e-4)]);
        assert_eq!(projected.len(), 1);
        assert!(projected[0].cov.at(0, 0) >= 0.3);
        assert!(projected[0].cov.at(1, 1) >= 0.3);
    }

    #[test]
    fn indices_are_preserved_and_ascending() {
        let (projected, _) = run(vec![
            splat(Vec3::new(0.0, 0.0, -5.0), 0.9, 0.1), // culled
            splat(Vec3::new(0.0, 0.0, 5.0), 0.9, 0.1),
            splat(Vec3::new(0.5, 0.0, 6.0), 0.9, 0.1),
        ]);
        let indices: Vec<u32> = projected.iter().map(|p| p.index).collect();
        assert_eq!(indices, vec![1, 2]);
    }

    #[test]
    fn inverse_covariance_matches_covariance() {
        let (projected, _) = run(vec![splat(Vec3::new(0.3, -0.2, 4.0), 0.8, 0.15)]);
        let p = &projected[0];
        let product = p.cov * p.inv_cov;
        assert!((product.at(0, 0) - 1.0).abs() < 1e-3);
        assert!((product.at(1, 1) - 1.0).abs() < 1e-3);
        assert!(product.at(0, 1).abs() < 1e-3);
    }

    #[test]
    fn non_finite_depths_are_culled_not_propagated() {
        // Regression test for the depth comparator satellite. A position
        // within f32 range but beyond f16 range overflows to ±∞ under
        // `Precision::Half`; the view transform then yields a NaN depth
        // (∞·0 in the rotation), which slips past the frustum test (its
        // rejecting comparisons are all false for NaN) and previously
        // produced a projected splat with a NaN depth — breaking the total
        // order the sort and `is_sorted_by_depth` rely on.
        let scene = Scene::new(
            "overflow",
            640,
            480,
            vec![
                splat(Vec3::new(1.0e6, 0.0, 5.0), 0.9, 0.1),
                splat(Vec3::new(0.0, 0.0, 5.0), 0.9, 0.1),
            ],
        );
        let mut counts = StageCounts::new();
        let projected = preprocess(
            &scene,
            &camera(),
            &RenderConfig::new(16, BoundaryMethod::Aabb)
                .with_precision(splat_types::Precision::Half),
            &mut counts,
        );
        assert_eq!(projected.len(), 1);
        assert_eq!(counts.culled_gaussians, 1);
        assert!(projected.iter().all(|p| p.depth.is_finite()));
    }

    #[test]
    fn degenerate_camera_culls_everything_instead_of_emitting_nan_depths() {
        // A NaN camera pose (e.g. from broken trajectory math) must not
        // leak NaN depths into the sort stage.
        let scene = Scene::new(
            "t",
            640,
            480,
            vec![splat(Vec3::new(0.0, 0.0, 5.0), 0.9, 0.1)],
        );
        let nan_camera = Camera::look_at(
            Vec3::new(f32::NAN, 0.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 640, 480),
        );
        let mut counts = StageCounts::new();
        let projected = preprocess(
            &scene,
            &nan_camera,
            &RenderConfig::new(16, BoundaryMethod::Aabb),
            &mut counts,
        );
        assert!(projected.is_empty());
        assert_eq!(counts.culled_gaussians, 1);
    }

    #[test]
    fn preprocess_into_reuses_the_buffer_and_matches_the_owned_path() {
        let gaussians = vec![
            splat(Vec3::new(0.0, 0.0, 5.0), 0.9, 0.1),
            splat(Vec3::new(0.5, 0.0, 6.0), 0.9, 0.1),
        ];
        let scene = Scene::new("t", 640, 480, gaussians);
        let config = RenderConfig::new(16, BoundaryMethod::Aabb);

        let mut counts = StageCounts::new();
        let owned = preprocess(&scene, &camera(), &config, &mut counts);

        let mut reused = Vec::new();
        for _ in 0..3 {
            let mut c = StageCounts::new();
            preprocess_into(&scene, &camera(), &config, &mut c, &mut reused);
            assert_eq!(reused, owned);
            assert_eq!(c, counts);
        }
        assert!(reused.capacity() >= scene.len());
    }

    #[test]
    fn simd_projection_is_bit_identical_to_scalar_projection() {
        // 21 splats: two full 8-lane chunks + a 5-splat tail. Includes
        // culled splats so lane bookkeeping around rejected candidates is
        // exercised.
        let mut gaussians = Vec::new();
        for i in 0..21 {
            let angle = i as f32 * 0.37;
            let pos = match i % 5 {
                4 => Vec3::new(0.0, 0.0, -4.0), // behind the camera
                _ => Vec3::new(angle.sin() * 1.5, angle.cos(), 3.0 + 0.4 * i as f32),
            };
            gaussians.push(
                Gaussian3d::builder()
                    .position(pos)
                    .scale(Vec3::new(0.1 + 0.01 * i as f32, 0.2, 0.15))
                    .rotation(Quat::from_axis_angle(Vec3::Y, angle))
                    .opacity(if i == 7 {
                        0.0001
                    } else {
                        0.5 + 0.02 * i as f32
                    })
                    .base_color([0.4, 0.5, 0.6])
                    .build(),
            );
        }
        let scene = Scene::new("simd", 640, 480, gaussians);
        let mut base = RenderConfig::new(16, BoundaryMethod::Aabb);
        base.exec.simd = splat_core::SimdMode::Scalar;

        let mut scalar_counts = StageCounts::new();
        let scalar = preprocess(&scene, &camera(), &base, &mut scalar_counts);
        assert!(!scalar.is_empty());
        assert!(scalar_counts.culled_gaussians > 0);

        let mut config = base;
        config.exec.simd = splat_core::SimdMode::Wide8;
        let mut counts = StageCounts::new();
        let wide = preprocess(&scene, &camera(), &config, &mut counts);
        assert_eq!(counts, scalar_counts);
        assert_eq!(wide, scalar);
    }

    #[test]
    fn counts_accumulate_inputs() {
        let (_, counts) = run(vec![
            splat(Vec3::new(0.0, 0.0, 5.0), 0.9, 0.1),
            splat(Vec3::new(0.0, 0.0, -5.0), 0.9, 0.1),
        ]);
        assert_eq!(counts.input_gaussians, 2);
        assert_eq!(counts.visible_gaussians + counts.culled_gaussians, 2);
    }
}
