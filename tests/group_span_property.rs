//! Span-based group identification against the per-tile reference.
//!
//! `identify_groups` builds every bitmask from one closed-form footprint
//! span per tile row. The loop it replaced — one
//! `GaussianFootprint::intersects` test per candidate group and per
//! candidate small tile — lives on here, and only here, as the reference:
//!
//! 1. **Property test** — seeded splats chosen to stress the geometry
//!    (near-isotropic, needles, sub-pixel, larger than the image,
//!    straddling tile, group and image borders, and just outside image
//!    corners), under every boundary
//!    method and prepass mode at 16+64, 8+64 and 16+32. Every tile holding
//!    a pixel centre the splat shades has its bit set; every bit and group
//!    entry equals the reference's, except where the footprint just
//!    touches the tile; and the counters reconcile.
//! 2. **Pinned counters** — on the three golden scenes the counters the
//!    accelerator model and the figure binaries read equal the
//!    reference's exactly.

use gs_tg::core::{alpha_at, ALPHA_CULL_THRESHOLD, MAHALANOBIS_CUTOFF};
use gs_tg::prelude::*;
use gs_tg::render::{preprocess, GaussianFootprint, ProjectedGaussian, TileGrid, TileRect};
use gs_tg::tile_grouping::{identify_groups, GroupAssignments, GroupLayout, TileBitmask};
use gs_tg::types::rng::Rng;
use gs_tg::types::{Mat2, Rgb, Vec2};

/// One identification result as sorted `(group, slot, bits)` triples.
type Entries = Vec<(usize, u32, u64)>;

/// The per-tile loop: every candidate group tested against the group
/// boundary, then every candidate small tile of a kept group against the
/// bitmask boundary (and, under the exact prepass, the ellipse).
fn per_tile_reference(
    projected: &[ProjectedGaussian],
    width: u32,
    height: u32,
    config: &GstgConfig,
    counts: &mut StageCounts,
) -> Entries {
    let group_grid = TileGrid::new(width, height, config.group_size);
    let tile_grid = TileGrid::new(width, height, config.tile_size);
    let layout = GroupLayout::new(config.tile_size, config.tiles_per_group_side());
    let exact = config.prepass == PrepassMode::Exact;
    let refine = exact && config.bitmask_boundary != BoundaryMethod::Ellipse;
    let mut entries = Vec::new();
    for (slot, splat) in projected.iter().enumerate() {
        let Some(footprint) = GaussianFootprint::from_covariance(splat.mean, splat.cov) else {
            continue;
        };
        let group_half_extent = footprint.candidate_half_extent(config.group_boundary);
        let (gx0, gx1, gy0, gy1) = group_grid.tile_range(splat.mean, group_half_extent);
        let tile_half_extent = footprint.candidate_half_extent(config.bitmask_boundary);
        let (ctx0, ctx1, cty0, cty1) = tile_grid.tile_range(splat.mean, tile_half_extent);
        for gy in gy0..gy1 {
            for gx in gx0..gx1 {
                counts.tile_tests += 1;
                let group_rect = group_grid.tile_rect_unclipped(gx, gy);
                if !footprint.intersects(&group_rect, config.group_boundary) {
                    continue;
                }
                let side = layout.tiles_per_side();
                let tx_lo = (gx * side).max(ctx0);
                let tx_hi = ((gx + 1) * side).min(ctx1).min(tile_grid.tiles_x());
                let ty_lo = (gy * side).max(cty0);
                let ty_hi = ((gy + 1) * side).min(cty1).min(tile_grid.tiles_y());
                let mut bitmask = TileBitmask::EMPTY;
                for ty in ty_lo..ty_hi {
                    for tx in tx_lo..tx_hi {
                        counts.bitmask_tests += 1;
                        counts.tiles_tested += 1;
                        let tile_rect = tile_grid.tile_rect_unclipped(tx, ty);
                        if !footprint.intersects(&tile_rect, config.bitmask_boundary) {
                            continue;
                        }
                        if refine {
                            counts.tiles_tested += 1;
                            if !footprint.intersects(&tile_rect, BoundaryMethod::Ellipse) {
                                counts.prepass_overcount_trimmed += 1;
                                continue;
                            }
                        }
                        counts.tiles_hit += 1;
                        bitmask.set(layout.bit_index(tx - gx * side, ty - gy * side));
                    }
                }
                if exact && bitmask.is_empty() {
                    continue;
                }
                counts.tile_intersections += 1;
                entries.push((
                    group_grid.tile_index(gx, gy),
                    slot as u32,
                    bitmask.to_bits(),
                ));
            }
        }
    }
    entries.sort_unstable();
    entries
}

fn entries_of(groups: &GroupAssignments) -> Entries {
    let mut entries: Entries = groups
        .iter()
        .flat_map(|(group, list)| {
            list.iter()
                .map(move |e| (group, e.slot, e.bitmask.to_bits()))
        })
        .collect();
    entries.sort_unstable();
    entries
}

/// Minimum squared Mahalanobis distance over a rectangle, in `f64` from
/// the splat's `f32` conic: zero when the rectangle holds the mean,
/// otherwise the least of the four edges' closed-form minima.
fn min_mahalanobis(splat: &ProjectedGaussian, rect: &TileRect) -> f64 {
    if rect.contains(splat.mean) {
        return 0.0;
    }
    let a = f64::from(splat.inv_cov.at(0, 0));
    let b = f64::from(splat.inv_cov.at(0, 1));
    let c = f64::from(splat.inv_cov.at(1, 1));
    let (mx, my) = (f64::from(splat.mean.x), f64::from(splat.mean.y));
    let q = |x: f64, y: f64| {
        let (dx, dy) = (x - mx, y - my);
        a * dx * dx + 2.0 * b * dx * dy + c * dy * dy
    };
    let (x0, y0) = (f64::from(rect.x0), f64::from(rect.y0));
    let (x1, y1) = (f64::from(rect.x1), f64::from(rect.y1));
    // Horizontal edge at height y: minimise over x in closed form.
    let horizontal = |y: f64| q((mx - b * (y - my) / a).clamp(x0, x1), y);
    let vertical = |x: f64| q(x, (my - b * (x - mx) / c).clamp(y0, y1));
    horizontal(y0)
        .min(horizontal(y1))
        .min(vertical(x0))
        .min(vertical(x1))
}

/// `true` when the footprint only just touches (or misses) `rect` under
/// `method`, so rounding may decide the test either way: under Ellipse the
/// minimum Mahalanobis distance lies within 1e-3 of the cutoff; under OBB
/// the answer flips when the rectangle grows or shrinks by 1e-3 px. AABB
/// spans are bit-exact and never borderline.
fn borderline(splat: &ProjectedGaussian, rect: &TileRect, method: BoundaryMethod) -> bool {
    let footprint = GaussianFootprint::from_covariance(splat.mean, splat.cov).expect("culled");
    match method {
        BoundaryMethod::Aabb => false,
        BoundaryMethod::Obb => {
            let e = 1e-3;
            let grown = TileRect::new(rect.x0 - e, rect.y0 - e, rect.x1 + e, rect.y1 + e);
            let shrunk = TileRect::new(rect.x0 + e, rect.y0 + e, rect.x1 - e, rect.y1 - e);
            footprint.intersects(&grown, method) != footprint.intersects(&shrunk, method)
        }
        BoundaryMethod::Ellipse => {
            (min_mahalanobis(splat, rect) - f64::from(MAHALANOBIS_CUTOFF)).abs() <= 1e-3
        }
    }
}

fn splat_with_cov(index: u32, mean: Vec2, cov: Mat2) -> Option<ProjectedGaussian> {
    Some(ProjectedGaussian {
        index,
        depth: 1.0 + index as f32,
        mean,
        cov,
        inv_cov: cov.inverse().ok()?,
        opacity: 0.95,
        color: Rgb::WHITE,
    })
}

fn rotated_cov(sigma_major: f32, sigma_minor: f32, angle: f32) -> Mat2 {
    let (s, c) = angle.sin_cos();
    let a2 = sigma_major * sigma_major;
    let b2 = sigma_minor * sigma_minor;
    Mat2::from_symmetric(
        c * c * a2 + s * s * b2,
        c * s * (a2 - b2),
        s * s * a2 + c * c * b2,
    )
}

const WIDTH: u32 = 150;
const HEIGHT: u32 = 110;

/// Seeded splats in six families, one after another.
fn stress_splats(rng: &mut Rng) -> Vec<ProjectedGaussian> {
    let mut out = Vec::new();
    let push = |out: &mut Vec<ProjectedGaussian>, mean: Vec2, cov: Mat2| {
        if let Some(splat) = splat_with_cov(out.len() as u32, mean, cov) {
            out.push(splat);
        }
    };
    let anywhere = |rng: &mut Rng| {
        Vec2::new(
            rng.range_f32(-30.0, WIDTH as f32 + 30.0),
            rng.range_f32(-30.0, HEIGHT as f32 + 30.0),
        )
    };
    // Near-isotropic: tiny off-diagonal, nearly equal diagonal — half at
    // any size, half at the 0.3 px² low-pass floor tiny splats project to.
    for i in 0..60 {
        let v = if i % 2 == 0 {
            rng.range_f32(0.1, 40.0)
        } else {
            0.3
        };
        let cov = Mat2::from_symmetric(
            v * (1.0 + rng.range_f32(0.0, 1e-5)),
            v * rng.range_f32(-4e-7, 4e-7),
            v * (1.0 + rng.range_f32(0.0, 1e-5)),
        );
        let mean = anywhere(rng);
        push(&mut out, mean, cov);
    }
    // Needles: axis ratio 0.01 at any angle, and on the image axes.
    for i in 0..60 {
        let angle = match i % 4 {
            0 => 0.0,
            1 => std::f32::consts::FRAC_PI_2,
            _ => rng.range_f32(0.0, std::f32::consts::PI),
        };
        let major = rng.range_f32(2.0, 40.0);
        let mean = anywhere(rng);
        push(&mut out, mean, rotated_cov(major, 0.01 * major, angle));
    }
    // Sub-pixel splats.
    for _ in 0..60 {
        let major = rng.range_f32(0.05, 0.4);
        let ratio = rng.range_f32(0.2, 1.0);
        let angle = rng.range_f32(0.0, std::f32::consts::PI);
        let mean = anywhere(rng);
        push(&mut out, mean, rotated_cov(major, major * ratio, angle));
    }
    // Larger than the image.
    for _ in 0..12 {
        let major = rng.range_f32(60.0, 200.0);
        let ratio = rng.range_f32(0.05, 1.0);
        let angle = rng.range_f32(0.0, std::f32::consts::PI);
        let mean = anywhere(rng);
        push(&mut out, mean, rotated_cov(major, major * ratio, angle));
    }
    // Straddling tile, group and image borders: means on (or a hair off)
    // multiples of 8, 16, 32 and 64 px and on the image edges.
    let borders = [0.0, 8.0, 16.0, 32.0, 48.0, 64.0, 96.0, 128.0];
    for _ in 0..120 {
        let pick = |rng: &mut Rng, limit: u32| {
            let choice = rng.range_f32(0.0, borders.len() as f32 + 1.0) as usize;
            let edge = borders.get(choice).copied().unwrap_or(limit as f32);
            let nudge = [0.0, 1e-4, -1e-4, 0.5, -0.5];
            edge + nudge[rng.range_f32(0.0, 4.99) as usize]
        };
        let mean = Vec2::new(pick(rng, WIDTH), pick(rng, HEIGHT));
        let major = rng.range_f32(0.1, 12.0);
        let ratio = rng.range_f32(0.05, 1.0);
        let angle = rng.range_f32(0.0, std::f32::consts::PI);
        push(&mut out, mean, rotated_cov(major, major * ratio, angle));
    }
    // Just outside an image corner, long axis across the corner's
    // diagonal: the candidate box reaches the corner tile, the ellipse may
    // not.
    for i in 0..40 {
        let (w, h) = (WIDTH as f32, HEIGHT as f32);
        let out_by = Vec2::new(rng.range_f32(0.3, 4.0), rng.range_f32(0.3, 4.0));
        let (mean, angle) = match i % 4 {
            0 => (
                Vec2::new(-out_by.x, -out_by.y),
                -std::f32::consts::FRAC_PI_4,
            ),
            1 => (
                Vec2::new(w + out_by.x, -out_by.y),
                std::f32::consts::FRAC_PI_4,
            ),
            2 => (
                Vec2::new(-out_by.x, h + out_by.y),
                std::f32::consts::FRAC_PI_4,
            ),
            _ => (
                Vec2::new(w + out_by.x, h + out_by.y),
                -std::f32::consts::FRAC_PI_4,
            ),
        };
        let major = rng.range_f32(1.0, 3.0);
        let ratio = rng.range_f32(0.05, 0.3);
        push(&mut out, mean, rotated_cov(major, major * ratio, angle));
    }
    // General splats.
    for _ in 0..120 {
        let major = rng.range_f32(0.3, 25.0);
        let ratio = rng.range_f32(0.05, 1.0);
        let angle = rng.range_f32(0.0, std::f32::consts::PI);
        let mean = anywhere(rng);
        push(&mut out, mean, rotated_cov(major, major * ratio, angle));
    }
    out
}

/// Small tiles, per splat, that hold a pixel centre the splat shades with
/// α ≥ 1/255, as `(slot, tx, ty)`.
fn shaded_tiles(projected: &[ProjectedGaussian], tile_size: u32) -> Vec<(u32, u32, u32)> {
    let mut tiles = Vec::new();
    for (slot, splat) in projected.iter().enumerate() {
        let Some(footprint) = GaussianFootprint::from_covariance(splat.mean, splat.cov) else {
            continue;
        };
        let ext = footprint.tight_half_extent() + Vec2::splat(1.0);
        let x0 = (splat.mean.x - ext.x).floor().clamp(0.0, WIDTH as f32) as u32;
        let x1 = (splat.mean.x + ext.x).ceil().clamp(0.0, WIDTH as f32) as u32;
        let y0 = (splat.mean.y - ext.y).floor().clamp(0.0, HEIGHT as f32) as u32;
        let y1 = (splat.mean.y + ext.y).ceil().clamp(0.0, HEIGHT as f32) as u32;
        for py in y0..y1 {
            for px in x0..x1 {
                let centre = Vec2::new(px as f32 + 0.5, py as f32 + 0.5);
                if alpha_at(splat, centre) >= ALPHA_CULL_THRESHOLD {
                    tiles.push((slot as u32, px / tile_size, py / tile_size));
                }
            }
        }
    }
    tiles.sort_unstable();
    tiles.dedup();
    tiles
}

fn configs() -> Vec<GstgConfig> {
    let mut configs = Vec::new();
    for (tile, group) in [(16, 64), (8, 64), (16, 32)] {
        for group_boundary in BoundaryMethod::ALL {
            for bitmask_boundary in BoundaryMethod::ALL {
                for prepass in PrepassMode::ALL {
                    configs.push(
                        GstgConfig::new(tile, group, group_boundary, bitmask_boundary)
                            .expect("valid configuration")
                            .with_prepass(prepass),
                    );
                }
            }
        }
    }
    configs
}

#[test]
fn span_identification_matches_the_per_tile_reference_on_stress_splats() {
    let mut rng = Rng::seed_from_u64(0x5BA4_0001);
    let projected = stress_splats(&mut rng);
    let shaded_8 = shaded_tiles(&projected, 8);
    let shaded_16 = shaded_tiles(&projected, 16);
    let mut borderline_diffs = 0usize;

    for config in configs() {
        let label = format!(
            "{}+{} {}/{} {:?}",
            config.tile_size,
            config.group_size,
            config.group_boundary,
            config.bitmask_boundary,
            config.prepass
        );
        let mut counts = StageCounts::new();
        let groups = identify_groups(&projected, WIDTH, HEIGHT, &config, &mut counts);
        let got = entries_of(&groups);
        let mut ref_counts = StageCounts::new();
        let want = per_tile_reference(&projected, WIDTH, HEIGHT, &config, &mut ref_counts);

        // Counters reconcile with the assignments.
        let bits: u64 = got.iter().map(|e| u64::from(e.2.count_ones())).sum();
        assert_eq!(counts.tiles_hit, bits, "{label}: tiles_hit vs popcounts");
        assert_eq!(
            counts.tile_intersections,
            got.len() as u64,
            "{label}: tile_intersections vs entries"
        );

        // Coverage: every shaded tile's bit is set.
        let side = config.tiles_per_group_side();
        let shaded = if config.tile_size == 8 {
            &shaded_8
        } else {
            &shaded_16
        };
        for &(slot, tx, ty) in shaded {
            let (gx, gy) = (tx / side, ty / side);
            let group = groups.group_grid().tile_index(gx, gy);
            let bit = groups.layout().bit_index(tx - gx * side, ty - gy * side);
            let set = groups
                .group(group)
                .iter()
                .any(|e| e.slot == slot && e.bitmask.contains(bit));
            assert!(
                set,
                "{label}: slot {slot} shades tile ({tx},{ty}) without its bit"
            );
        }

        // Reference: equal entries and bits, except borderline tiles.
        if got == want {
            assert_eq!(counts, ref_counts, "{label}: counters vs reference");
            continue;
        }
        let group_grid = *groups.group_grid();
        let tile_grid = *groups.tile_grid();
        let lookup = |entries: &Entries, group: usize, slot: u32| {
            entries
                .iter()
                .find(|e| e.0 == group && e.1 == slot)
                .map(|e| e.2)
        };
        let mut keys: Vec<(usize, u32)> = got.iter().chain(&want).map(|e| (e.0, e.1)).collect();
        keys.sort_unstable();
        keys.dedup();
        for (group, slot) in keys {
            let (a, b) = (lookup(&got, group, slot), lookup(&want, group, slot));
            if a == b {
                continue;
            }
            let splat = &projected[slot as usize];
            let (gx, gy) = group_grid.tile_coords(group);
            let group_rect = group_grid.tile_rect_unclipped(gx, gy);
            let differing = a.unwrap_or(0) ^ b.unwrap_or(0);
            let tiles_borderline = (0..64u32).filter(|i| differing & (1 << i) != 0).all(|bit| {
                let (tx, ty) = groups.layout().tile_of_bit(bit);
                let rect = tile_grid.tile_rect_unclipped(gx * side + tx, gy * side + ty);
                borderline(splat, &rect, config.bitmask_boundary)
                    || (config.prepass == PrepassMode::Exact
                        && borderline(splat, &rect, BoundaryMethod::Ellipse))
            });
            // An entry present on one side only needs a borderline group
            // test, or (exact prepass) a mask whose every bit was borderline.
            let entry_borderline = a.is_some() == b.is_some()
                || borderline(splat, &group_rect, config.group_boundary)
                || (config.prepass == PrepassMode::Exact && differing != 0);
            assert!(
                tiles_borderline && entry_borderline,
                "{label}: group {group} slot {slot}: span {a:?} vs per-tile {b:?}"
            );
            borderline_diffs += 1;
        }
    }
    // Rounding may decide a handful of the ~500k reference tile tests.
    assert!(
        borderline_diffs <= 20,
        "{borderline_diffs} borderline differences"
    );
}

fn golden_camera() -> Camera {
    Camera::look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics::from_fov_y(1.0, 96, 64),
    )
}

#[test]
fn accelerator_counters_equal_the_per_tile_reference_on_golden_scenes() {
    let configs = [
        GstgConfig::new(16, 64, BoundaryMethod::Ellipse, BoundaryMethod::Ellipse),
        GstgConfig::new(8, 64, BoundaryMethod::Ellipse, BoundaryMethod::Ellipse),
        GstgConfig::new(16, 32, BoundaryMethod::Aabb, BoundaryMethod::Ellipse),
    ]
    .map(|config| config.expect("valid configuration"));
    for paper_scene in [
        PaperScene::Train,
        PaperScene::Playroom,
        PaperScene::Drjohnson,
    ] {
        let scene = paper_scene.build(SceneScale::Tiny, 0);
        let camera = golden_camera();
        for config in configs {
            let label = format!(
                "{paper_scene:?} {}+{} {}/{}",
                config.tile_size, config.group_size, config.group_boundary, config.bitmask_boundary
            );
            let counts = GstgRenderer::new(config)
                .render(&scene, &camera)
                .stats
                .counts;

            let mut ref_counts = StageCounts::new();
            let projected = preprocess(
                &scene,
                &camera,
                &config.equivalent_baseline(),
                &mut ref_counts,
            );
            let mut ref_counts = StageCounts::new();
            let want = per_tile_reference(
                &projected,
                camera.width(),
                camera.height(),
                &config,
                &mut ref_counts,
            );

            let mut span_counts = StageCounts::new();
            let got = identify_groups(
                &projected,
                camera.width(),
                camera.height(),
                &config,
                &mut span_counts,
            );
            assert_eq!(entries_of(&got), want, "{label}: entries");
            assert!(!want.is_empty(), "{label}: empty frame");

            assert_eq!(
                counts.tile_tests, ref_counts.tile_tests,
                "{label}: tile_tests"
            );
            assert_eq!(
                counts.bitmask_tests, ref_counts.bitmask_tests,
                "{label}: bitmask_tests"
            );
            assert_eq!(
                counts.tiles_tested, ref_counts.tiles_tested,
                "{label}: tiles_tested"
            );
            assert_eq!(counts.tiles_hit, ref_counts.tiles_hit, "{label}: tiles_hit");
            assert_eq!(
                counts.tile_intersections, ref_counts.tile_intersections,
                "{label}: tile_intersections"
            );
            assert_eq!(counts.sort_keys, want.len() as u64, "{label}: sort_keys");
        }
    }
}
