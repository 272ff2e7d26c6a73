//! Bitmask-filtered tile-wise rasterization.
//!
//! Rasterization runs at the small tile size: for every tile of a group the
//! group-sorted splat list is filtered with the tile's bit of each entry's
//! bitmask (the AND/OR "valid" computation of the hardware rasterization
//! module) and the surviving splats — already in depth order — are blended
//! by the same shared kernel the baseline uses
//! ([`splat_core::rasterize_tile`]). The fan-out across groups goes through
//! the shared [`TileScheduler`], so parallel results merge in group order
//! and are bit-exact with the sequential walk.

use crate::bitmask::TileBitmask;
use crate::group::{GroupAssignments, GroupEntry};
use splat_core::{
    rasterize_tile_into_with, rasterize_tile_spans_into_with, rasterize_tile_spans_with,
    rasterize_tile_with, Framebuffer, ProjectedGaussian, SimdMode, SpanMode, SpanScratch,
    StageCounts, TileScheduler,
};
use splat_types::Rgb;
use std::time::Duration;

/// Filters a group-sorted entry list down to the splats that touch the tile
/// at bitmask position `bit`, preserving order. Each entry costs one
/// bitmask filter operation (the hardware performs them 8 per cycle).
pub fn filter_tile_list(entries: &[GroupEntry], bit: u32, counts: &mut StageCounts) -> Vec<u32> {
    let mut out = Vec::new();
    filter_tile_list_into(entries, bit, counts, &mut out);
    out
}

/// In-place variant of [`filter_tile_list`]: `out` is cleared and refilled,
/// retaining its allocation across tiles — the allocation-free session
/// path.
pub fn filter_tile_list_into(
    entries: &[GroupEntry],
    bit: u32,
    counts: &mut StageCounts,
    out: &mut Vec<u32>,
) {
    let location = TileBitmask::one_hot(bit);
    counts.bitmask_filter_ops += entries.len() as u64;
    out.clear();
    out.extend(
        entries
            .iter()
            .filter(|e| e.bitmask.filter(location))
            .map(|e| e.slot),
    );
}

/// Rasterizes every tile of every group into a framebuffer with the
/// production blend kernel ([`SimdMode::default`]) and the full tile walk.
///
/// `threads` > 1 distributes groups across worker threads; each group's
/// tiles write disjoint framebuffer regions and outputs merge in group
/// order, so the result is bit-exact for any thread count.
pub fn rasterize_groups(
    projected: &[ProjectedGaussian],
    assignments: &GroupAssignments,
    image_width: u32,
    image_height: u32,
    background: Rgb,
    threads: usize,
) -> (Framebuffer, StageCounts) {
    let mut scratch = SpanScratch::new();
    rasterize_groups_with(
        projected,
        assignments,
        image_width,
        image_height,
        background,
        threads,
        SimdMode::default(),
        SpanMode::Full,
        &mut scratch,
    )
}

/// [`rasterize_groups`] with an explicit [`SimdMode`] and [`SpanMode`] for
/// the shared blending kernel. Every mode produces bit-identical pixels and
/// counters; `scratch` carries the span walker's recycled buffers and
/// accumulates its interval-build time.
#[allow(clippy::too_many_arguments)]
pub fn rasterize_groups_with(
    projected: &[ProjectedGaussian],
    assignments: &GroupAssignments,
    image_width: u32,
    image_height: u32,
    background: Rgb,
    threads: usize,
    simd: SimdMode,
    span: SpanMode,
    scratch: &mut SpanScratch,
) -> (Framebuffer, StageCounts) {
    // Start from an empty framebuffer: rasterize_groups_into's reset
    // performs the one-and-only background fill.
    let mut image = Framebuffer::new(0, 0, background);
    let mut tile_list = Vec::new();
    let counts = rasterize_groups_into_with(
        projected,
        assignments,
        image_width,
        image_height,
        background,
        threads,
        simd,
        span,
        &mut image,
        &mut tile_list,
        scratch,
    );
    (image, counts)
}

/// In-place variant of [`rasterize_groups`] used by the render sessions:
/// the framebuffer is reset to the image dimensions and reused, and with
/// one worker thread every tile is filtered into `tile_list` and shaded
/// directly into `image` with no per-tile buffers. With more threads the
/// fan-out runs through the shared [`TileScheduler`] exactly as before.
/// Both paths perform identical per-pixel operations, so pixels and
/// [`StageCounts`] are bit-identical.
#[allow(clippy::too_many_arguments)]
pub fn rasterize_groups_into(
    projected: &[ProjectedGaussian],
    assignments: &GroupAssignments,
    image_width: u32,
    image_height: u32,
    background: Rgb,
    threads: usize,
    image: &mut Framebuffer,
    tile_list: &mut Vec<u32>,
) -> StageCounts {
    let mut scratch = SpanScratch::new();
    rasterize_groups_into_with(
        projected,
        assignments,
        image_width,
        image_height,
        background,
        threads,
        SimdMode::default(),
        SpanMode::Full,
        image,
        tile_list,
        &mut scratch,
    )
}

/// [`rasterize_groups_into`] with an explicit [`SimdMode`] and [`SpanMode`]
/// for the shared blending kernel. Every mode produces bit-identical pixels
/// and counters. With [`SpanMode::RowSpans`] the sequential path shades
/// through `scratch` and the parallel path folds each worker's
/// interval-build time back into it; drain it with
/// [`SpanScratch::take_build_time`] after the call.
#[allow(clippy::too_many_arguments)]
pub fn rasterize_groups_into_with(
    projected: &[ProjectedGaussian],
    assignments: &GroupAssignments,
    image_width: u32,
    image_height: u32,
    background: Rgb,
    threads: usize,
    simd: SimdMode,
    span: SpanMode,
    image: &mut Framebuffer,
    tile_list: &mut Vec<u32>,
    scratch: &mut SpanScratch,
) -> StageCounts {
    image.reset(image_width, image_height, background);
    let mut counts = StageCounts::new();

    if threads <= 1 {
        let layout = assignments.layout();
        let tile_grid = assignments.tile_grid();
        for group in 0..assignments.group_count() {
            let entries = assignments.group(group);
            let (gx, gy) = assignments.group_grid().tile_coords(group);
            for bit in 0..layout.tiles_per_group() {
                let Some((tx, ty)) = assignments.global_tile_of_bit(gx, gy, bit) else {
                    continue;
                };
                let rect = tile_grid.tile_rect(tx, ty);
                filter_tile_list_into(entries, bit, &mut counts, tile_list);
                match span {
                    SpanMode::Full => rasterize_tile_into_with(
                        tile_list,
                        projected,
                        &rect,
                        background,
                        simd,
                        image,
                        &mut counts,
                    ),
                    SpanMode::RowSpans => rasterize_tile_spans_into_with(
                        tile_list,
                        projected,
                        &rect,
                        background,
                        simd,
                        image,
                        &mut counts,
                        scratch,
                    ),
                }
            }
        }
        return counts;
    }

    let scheduler = TileScheduler::new(threads);
    let groups = scheduler.run(assignments.group_count(), |group| {
        let mut local_counts = StageCounts::new();
        let mut regions = Vec::new();
        let built = collect_group_regions(
            projected,
            assignments,
            group,
            background,
            simd,
            span,
            &mut regions,
            &mut local_counts,
        );
        (regions, local_counts, built)
    });

    for (regions, local_counts, built) in groups {
        counts += local_counts;
        scratch.add_build_time(built);
        for (x0, y0, width, pixels) in regions {
            image.write_region(x0, y0, width, &pixels);
        }
    }
    counts
}

type Region = (u32, u32, u32, Vec<Rgb>);

/// Shades every tile of one group into per-tile regions, returning the
/// time the span walker spent building row intervals
/// ([`Duration::ZERO`] under [`SpanMode::Full`]).
#[allow(clippy::too_many_arguments)]
fn collect_group_regions(
    projected: &[ProjectedGaussian],
    assignments: &GroupAssignments,
    group: usize,
    background: Rgb,
    simd: SimdMode,
    span: SpanMode,
    regions: &mut Vec<Region>,
    counts: &mut StageCounts,
) -> Duration {
    let entries = assignments.group(group);
    let (gx, gy) = assignments.group_grid().tile_coords(group);
    let layout = assignments.layout();
    let tile_grid = assignments.tile_grid();
    let mut scratch = SpanScratch::new();

    for bit in 0..layout.tiles_per_group() {
        let Some((tx, ty)) = assignments.global_tile_of_bit(gx, gy, bit) else {
            continue;
        };
        let rect = tile_grid.tile_rect(tx, ty);
        let tile_list = filter_tile_list(entries, bit, counts);
        let out = match span {
            SpanMode::Full => rasterize_tile_with(&tile_list, projected, &rect, background, simd),
            SpanMode::RowSpans => rasterize_tile_spans_with(
                &tile_list,
                projected,
                &rect,
                background,
                simd,
                &mut scratch,
            ),
        };
        *counts += out.counts;
        regions.push((rect.x0 as u32, rect.y0 as u32, out.width, out.pixels));
    }
    scratch.take_build_time()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GstgConfig;
    use crate::group::identify_groups;
    use crate::sort::sort_groups;
    use splat_render::BoundaryMethod;
    use splat_types::{Mat2, Vec2};

    fn projected(mean: Vec2, sigma: f32, index: u32, depth: f32, color: Rgb) -> ProjectedGaussian {
        let cov = Mat2::from_symmetric(sigma * sigma, 0.0, sigma * sigma);
        ProjectedGaussian {
            index,
            depth,
            mean,
            cov,
            inv_cov: cov.inverse().unwrap(),
            opacity: 0.9,
            color,
        }
    }

    fn entry(slot: u32, bits: u64) -> GroupEntry {
        GroupEntry {
            slot,
            bitmask: TileBitmask::from_bits(bits),
        }
    }

    #[test]
    fn filter_preserves_order_and_counts_ops() {
        let entries = vec![entry(3, 0b0010), entry(1, 0b0001), entry(7, 0b0011)];
        let mut counts = StageCounts::new();
        let bit0 = filter_tile_list(&entries, 0, &mut counts);
        let bit1 = filter_tile_list(&entries, 1, &mut counts);
        assert_eq!(bit0, vec![1, 7]);
        assert_eq!(bit1, vec![3, 7]);
        assert_eq!(counts.bitmask_filter_ops, 6);
    }

    #[test]
    fn rasterized_groups_match_dimensions() {
        let splats = vec![projected(Vec2::new(40.0, 40.0), 5.0, 0, 1.0, Rgb::WHITE)];
        let cfg =
            GstgConfig::new(16, 64, BoundaryMethod::Ellipse, BoundaryMethod::Ellipse).unwrap();
        let mut counts = StageCounts::new();
        let mut groups = identify_groups(&splats, 100, 80, &cfg, &mut counts);
        sort_groups(&mut groups, &splats, &mut counts);
        let (image, raster_counts) = rasterize_groups(&splats, &groups, 100, 80, Rgb::BLACK, 1);
        assert_eq!((image.width(), image.height()), (100, 80));
        assert_eq!(raster_counts.pixels, 100 * 80);
        assert!(image.mean_luminance() > 0.0);
    }

    #[test]
    fn parallel_and_sequential_group_rasterization_agree() {
        let splats: Vec<ProjectedGaussian> = (0..12)
            .map(|i| {
                projected(
                    Vec2::new(20.0 + 18.0 * (i % 4) as f32, 20.0 + 18.0 * (i / 4) as f32),
                    6.0,
                    i,
                    1.0 + i as f32,
                    Rgb::new(0.1 * i as f32, 0.5, 1.0 - 0.05 * i as f32),
                )
            })
            .collect();
        let cfg =
            GstgConfig::new(16, 64, BoundaryMethod::Ellipse, BoundaryMethod::Ellipse).unwrap();
        let mut counts = StageCounts::new();
        let mut groups = identify_groups(&splats, 128, 128, &cfg, &mut counts);
        sort_groups(&mut groups, &splats, &mut counts);
        let (seq, seq_counts) = rasterize_groups(&splats, &groups, 128, 128, Rgb::BLACK, 1);
        let (par, par_counts) = rasterize_groups(&splats, &groups, 128, 128, Rgb::BLACK, 4);
        assert_eq!(seq.max_abs_diff(&par), 0.0);
        assert_eq!(seq_counts, par_counts);
    }

    #[test]
    fn bitmask_filtering_skips_unrelated_tiles() {
        // A splat confined to one tile must not cost α-computations in the
        // other 15 tiles of its group.
        let splats = vec![projected(Vec2::new(8.0, 8.0), 1.5, 0, 1.0, Rgb::WHITE)];
        let cfg =
            GstgConfig::new(16, 64, BoundaryMethod::Ellipse, BoundaryMethod::Ellipse).unwrap();
        let mut counts = StageCounts::new();
        let mut groups = identify_groups(&splats, 64, 64, &cfg, &mut counts);
        sort_groups(&mut groups, &splats, &mut counts);
        let (_, raster_counts) = rasterize_groups(&splats, &groups, 64, 64, Rgb::BLACK, 1);
        // α-computations only in the single 16×16 tile the splat touches.
        assert_eq!(raster_counts.alpha_computations, 256);
    }
}
