//! Integration test: GS-TG is lossless with respect to the conventional
//! pipeline across scenes, grouping configurations and boundary methods —
//! the paper's central correctness claim, verified end to end through the
//! public API of the umbrella crate.

use gs_tg::prelude::*;
use gs_tg::tile_grouping::verify_lossless;

fn test_camera(width: u32, height: u32, fov: f32) -> Camera {
    Camera::try_look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics::from_fov_y(fov, width, height),
    )
    .expect("valid pose")
}

#[test]
fn paper_configuration_is_lossless_on_every_scene() {
    for scene_id in PaperScene::HARDWARE_SET {
        let scene = scene_id.build(SceneScale::Tiny, 0);
        let camera = test_camera(240, 160, 0.95);
        let report = verify_lossless(&scene, &camera, GstgConfig::paper_default());
        assert!(
            report.identical,
            "{}: max diff {}",
            scene_id.name(),
            report.max_abs_diff
        );
        assert_eq!(
            report.baseline_alpha_computations,
            report.gstg_alpha_computations,
            "{}: rasterization work must be identical",
            scene_id.name()
        );
    }
}

#[test]
fn every_grouping_and_boundary_combination_is_lossless() {
    let scene = PaperScene::Truck.build(SceneScale::Tiny, 3);
    let camera = test_camera(320, 200, 0.9);
    for (tile, group) in [(8u32, 16u32), (8, 64), (16, 32), (16, 64)] {
        for group_boundary in [
            BoundaryMethod::Aabb,
            BoundaryMethod::Obb,
            BoundaryMethod::Ellipse,
        ] {
            for bitmask_boundary in [BoundaryMethod::Aabb, BoundaryMethod::Ellipse] {
                let config = GstgConfig::new(tile, group, group_boundary, bitmask_boundary)
                    .expect("valid configuration");
                let report = verify_lossless(&scene, &camera, config);
                assert!(
                    report.identical,
                    "{tile}+{group} {group_boundary}+{bitmask_boundary}: diff {}",
                    report.max_abs_diff
                );
            }
        }
    }
}

#[test]
fn grouping_reduces_sorting_on_every_scene() {
    for scene_id in PaperScene::ALGORITHM_SET {
        let scene = scene_id.build(SceneScale::Tiny, 1);
        let camera = test_camera(320, 200, 0.95);
        let report = verify_lossless(&scene, &camera, GstgConfig::paper_default());
        assert!(
            report.sort_reduction() > 1.0,
            "{}: expected a sorting reduction, got {:.3}x",
            scene_id.name(),
            report.sort_reduction()
        );
    }
}

#[test]
fn half_precision_models_are_also_lossless_between_pipelines() {
    // The paper converts models to fp16 for the accelerator; losslessness
    // between the two pipelines must hold at that precision too (both see
    // the same quantized inputs).
    let scene = PaperScene::Playroom.build(SceneScale::Tiny, 5);
    let camera = test_camera(256, 160, 1.0);
    let config = GstgConfig::paper_default().with_precision(gs_tg::types::Precision::Half);
    let grouped = GstgRenderer::new(config).render(&scene, &camera);
    let baseline = Renderer::new(config.equivalent_baseline()).render(&scene, &camera);
    assert_eq!(grouped.image.max_abs_diff(&baseline.image), 0.0);
}

/// Tiny splats project to the 0.3 px² low-pass covariance plus an
/// off-diagonal of order 1e-8: near-isotropic footprints whose principal
/// axes once came back as zero vectors. Ellipse and OBB identification
/// then kept only the tile holding the mean and dropped the neighbouring
/// tile the splat still shades. With hundreds of such splats lying across
/// tile borders, every boundary method and GS-TG must render one frame.
#[test]
fn near_isotropic_splats_on_tile_borders_render_identically_under_every_boundary() {
    use gs_tg::types::rng::Rng;

    let mut rng = Rng::seed_from_u64(0x1507_0b0d);
    let gaussians: Vec<Gaussian3d> = (0..1500)
        .map(|_| {
            Gaussian3d::builder()
                .position(Vec3::new(
                    rng.range_f32(-2.5, 2.5),
                    rng.range_f32(-1.8, 1.8),
                    rng.range_f32(4.0, 6.0),
                ))
                .scale(Vec3::splat(1e-5))
                .opacity(rng.range_f32(0.5, 1.0))
                .base_color([rng.gen_f32(), rng.gen_f32(), rng.gen_f32()])
                .build()
        })
        .collect();
    let scene = Scene::new("near-isotropic", 128, 96, gaussians);
    let camera = test_camera(128, 96, 1.0);

    let aabb = Renderer::new(RenderConfig::default()).render(&scene, &camera);
    assert_eq!(RenderConfig::default().boundary, BoundaryMethod::Aabb);
    let mut frames = vec![(
        "GS-TG paper default".to_string(),
        GstgRenderer::new(GstgConfig::paper_default()).render(&scene, &camera),
    )];
    for boundary in [BoundaryMethod::Ellipse, BoundaryMethod::Obb] {
        frames.push((
            format!("{boundary} baseline"),
            Renderer::new(RenderConfig::new(16, boundary)).render(&scene, &camera),
        ));
    }
    for (name, output) in &frames {
        assert_eq!(
            output.image.max_abs_diff(&aabb.image),
            0.0,
            "{name} renders differently from the AABB baseline"
        );
        assert_eq!(
            output.stats.counts.blend_operations, aabb.stats.counts.blend_operations,
            "{name}: blended contributions"
        );
    }
}
