//! The shared front-to-back blending kernel.
//!
//! For every pixel of a tile the sorted splat list is walked front-to-back.
//! Each splat costs one α-computation (Eq. 1 of the paper); splats whose α
//! falls below 1/255 are skipped, the rest are blended (Eq. 2) until the
//! accumulated transmittance drops below 10⁻⁴. Both the baseline renderer
//! and the GS-TG renderer rasterize through [`rasterize_tile`] — GS-TG
//! merely filters the splat list with its bitmasks first.

use crate::exec::SimdMode;
use crate::rect::{TileRect, MAHALANOBIS_CUTOFF};
use crate::splat::ProjectedGaussian;
use crate::stats::StageCounts;
use splat_types::{Rgb, Vec2};

/// α values below this threshold (1/255) are treated as having no influence
/// on the pixel and are skipped before blending, as in the reference 3D-GS
/// rasterizer.
pub const ALPHA_CULL_THRESHOLD: f32 = 1.0 / 255.0;

/// The front-to-back blending loop terminates once the accumulated
/// transmittance drops below this threshold (10⁻⁴ in the reference
/// implementation).
pub const TRANSMITTANCE_EPSILON: f32 = 1e-4;

/// Upper bound on α (the reference implementation clamps at 0.99 to keep
/// the transmittance strictly positive).
pub const ALPHA_MAX: f32 = 0.99;

/// Result of rasterizing a single tile: the pixel colors of the clipped
/// tile region in row-major order plus the operation counts incurred.
#[derive(Debug, Clone, PartialEq)]
pub struct TileRaster {
    /// Width of the rasterized region in pixels.
    pub width: u32,
    /// Height of the rasterized region in pixels.
    pub height: u32,
    /// Pixel colors, row-major, `width * height` entries.
    pub pixels: Vec<Rgb>,
    /// Operation counters for this tile only.
    pub counts: StageCounts,
}

/// Rasterizes one tile with the production kernel
/// ([`SimdMode::default`]).
///
/// * `sorted` — splat slots (indices into `projected`) already sorted
///   front-to-back.
/// * `rect` — the clipped pixel rectangle of the tile (integer bounds).
/// * `background` — color of pixels with full remaining transmittance.
pub fn rasterize_tile(
    sorted: &[u32],
    projected: &[ProjectedGaussian],
    rect: &TileRect,
    background: Rgb,
) -> TileRaster {
    rasterize_tile_with(sorted, projected, rect, background, SimdMode::default())
}

/// [`rasterize_tile`] with an explicit [`SimdMode`]. The wide mode shades
/// each row in 8-pixel chunks (per-pixel tail) whose per-lane arithmetic
/// replicates [`shade_pixel`] operation for operation, so both modes
/// produce bit-identical pixels and identical counters.
pub fn rasterize_tile_with(
    sorted: &[u32],
    projected: &[ProjectedGaussian],
    rect: &TileRect,
    background: Rgb,
    simd: SimdMode,
) -> TileRaster {
    debug_assert!(
        rect.x1 >= rect.x0 && rect.y1 >= rect.y0,
        "inverted tile rect {rect:?}"
    );
    let x0 = rect.x0 as u32;
    let y0 = rect.y0 as u32;
    let width = (rect.x1 as u32).saturating_sub(x0);
    let height = (rect.y1 as u32).saturating_sub(y0);
    let mut pixels = vec![Rgb::BLACK; (width * height) as usize];
    let mut counts = StageCounts::new();
    if width > 0 {
        for (py, row) in (y0..).zip(pixels.chunks_exact_mut(width as usize)) {
            shade_row(
                sorted,
                projected,
                x0,
                py,
                background,
                simd,
                row,
                &mut counts,
            );
        }
    }
    TileRaster {
        width,
        height,
        pixels,
        counts,
    }
}

/// Rasterizes one tile directly into a framebuffer with the production
/// kernel ([`SimdMode::default`]), charging all work to `counts`. This is
/// the allocation-free path the sequential rasterizers use inside a reused
/// [`crate::FrameArena`]; it runs the same row walker as
/// [`rasterize_tile`], so the two paths produce bit-identical pixels and
/// identical counters.
///
/// # Panics
///
/// Panics when `rect` exceeds the framebuffer bounds.
pub fn rasterize_tile_into(
    sorted: &[u32],
    projected: &[ProjectedGaussian],
    rect: &TileRect,
    background: Rgb,
    image: &mut crate::Framebuffer,
    counts: &mut StageCounts,
) {
    rasterize_tile_into_with(
        sorted,
        projected,
        rect,
        background,
        SimdMode::default(),
        image,
        counts,
    );
}

/// [`rasterize_tile_into`] with an explicit [`SimdMode`]. Allocation-free
/// in both modes: each tile row is shaded straight into the framebuffer's
/// row slice.
///
/// # Panics
///
/// Panics when `rect` exceeds the framebuffer bounds.
pub fn rasterize_tile_into_with(
    sorted: &[u32],
    projected: &[ProjectedGaussian],
    rect: &TileRect,
    background: Rgb,
    simd: SimdMode,
    image: &mut crate::Framebuffer,
    counts: &mut StageCounts,
) {
    debug_assert!(
        rect.x1 >= rect.x0 && rect.y1 >= rect.y0,
        "inverted tile rect {rect:?}"
    );
    let x0 = rect.x0 as u32;
    let x1 = rect.x1 as u32;
    if x1 <= x0 {
        return;
    }
    for py in rect.y0 as u32..rect.y1 as u32 {
        let row = image.row_mut(py, x0..x1);
        shade_row(sorted, projected, x0, py, background, simd, row, counts);
    }
}

/// The one row walker behind every full-walk raster path: shades pixel
/// row `py` into `row`, whose pixel `i` sits at column `x0 + i`, and
/// charges every pixel to `counts`. [`SimdMode::Wide8`] walks the sorted
/// list once per 8-pixel chunk ([`shade_chunk`]) and shades the ragged
/// tail per pixel; [`SimdMode::Scalar`] walks it once per pixel.
#[allow(clippy::too_many_arguments)]
fn shade_row(
    sorted: &[u32],
    projected: &[ProjectedGaussian],
    x0: u32,
    py: u32,
    background: Rgb,
    simd: SimdMode,
    row: &mut [Rgb],
    counts: &mut StageCounts,
) {
    counts.pixels += row.len() as u64;
    let (tail_x0, tail) = match simd {
        SimdMode::Scalar => (x0, row),
        SimdMode::Wide8 => {
            const LANES: usize = 8;
            let mut chunks = row.chunks_exact_mut(LANES);
            let mut px = x0;
            for chunk in &mut chunks {
                chunk.copy_from_slice(&shade_chunk::<LANES>(
                    sorted, projected, px, py, background, counts,
                ));
                px += LANES as u32;
            }
            (px, chunks.into_remainder())
        }
    };
    let y = py as f32 + 0.5;
    for (px, out) in (tail_x0..).zip(tail) {
        let pixel_center = Vec2::new(px as f32 + 0.5, y);
        *out = shade_pixel(sorted, projected, pixel_center, background, counts);
    }
}

/// Walks the sorted splat list front-to-back for `W` adjacent pixels of one
/// row at once — the splat-outer dual of [`shade_pixel`]'s pixel-outer
/// loop.
///
/// The Mahalanobis form is evaluated branch-free across the whole chunk
/// (the loop the auto-vectorizer targets); α-evaluation and blending then
/// run per *active* lane with exactly the scalar path's operations and
/// operand order (no fused multiply-add), so pixels are bit-identical and
/// `alpha_computations` / `blend_operations` / `early_exits` charge
/// identically: a lane stops being charged once its transmittance
/// early-exit fires, just as the scalar loop breaks.
fn shade_chunk<const W: usize>(
    sorted: &[u32],
    projected: &[ProjectedGaussian],
    px0: u32,
    py: u32,
    background: Rgb,
    counts: &mut StageCounts,
) -> [Rgb; W] {
    let y = py as f32 + 0.5;
    let mut xs = [0.0f32; W];
    for (lane, x) in xs.iter_mut().enumerate() {
        *x = (px0 + lane as u32) as f32 + 0.5;
    }
    let mut trans = [1.0f32; W];
    let mut acc_r = [0.0f32; W];
    let mut acc_g = [0.0f32; W];
    let mut acc_b = [0.0f32; W];
    let mut active = [true; W];
    let mut live = W;
    let mut m = [0.0f32; W];

    for &slot in sorted {
        let splat = &projected[slot as usize];
        let m00 = splat.inv_cov.at(0, 0);
        let m01 = splat.inv_cov.at(0, 1);
        let m10 = splat.inv_cov.at(1, 0);
        let m11 = splat.inv_cov.at(1, 1);
        let mean_x = splat.mean.x;
        let dy = y - splat.mean.y;
        for lane in 0..W {
            let dx = xs[lane] - mean_x;
            let vx = m00 * dx + m01 * dy;
            let vy = m10 * dx + m11 * dy;
            m[lane] = dx * vx + dy * vy;
        }
        counts.alpha_computations += live as u64;
        for lane in 0..W {
            if !active[lane] {
                continue;
            }
            let alpha = if (0.0..=MAHALANOBIS_CUTOFF).contains(&m[lane]) {
                (splat.opacity * (-0.5 * m[lane]).exp()).min(ALPHA_MAX)
            } else {
                0.0
            };
            if alpha < ALPHA_CULL_THRESHOLD {
                continue;
            }
            let weight = alpha * trans[lane];
            acc_r[lane] += splat.color.r * weight;
            acc_g[lane] += splat.color.g * weight;
            acc_b[lane] += splat.color.b * weight;
            trans[lane] *= 1.0 - alpha;
            counts.blend_operations += 1;
            if trans[lane] < TRANSMITTANCE_EPSILON {
                counts.early_exits += 1;
                active[lane] = false;
                live -= 1;
            }
        }
        if live == 0 {
            break;
        }
    }

    std::array::from_fn(|lane| {
        Rgb::new(acc_r[lane], acc_g[lane], acc_b[lane]) + background * trans[lane]
    })
}

/// Walks a sorted splat list front-to-back for one pixel (Eqs. 1–2 with
/// the 1/255 α-cull and 10⁻⁴ transmittance early-exit), charging
/// α-computations, blends and early exits to `counts`. The caller charges
/// `counts.pixels`.
#[inline]
pub fn shade_pixel(
    sorted: &[u32],
    projected: &[ProjectedGaussian],
    pixel_center: Vec2,
    background: Rgb,
    counts: &mut StageCounts,
) -> Rgb {
    let mut transmittance = 1.0f32;
    let mut color = Rgb::BLACK;
    for &slot in sorted {
        let splat = &projected[slot as usize];
        counts.alpha_computations += 1;
        let alpha = alpha_at(splat, pixel_center);
        if alpha < ALPHA_CULL_THRESHOLD {
            continue;
        }
        color += splat.color * (alpha * transmittance);
        transmittance *= 1.0 - alpha;
        counts.blend_operations += 1;
        if transmittance < TRANSMITTANCE_EPSILON {
            counts.early_exits += 1;
            break;
        }
    }
    color + background * transmittance
}

/// Evaluates Eq. 1: the contribution of a splat at a pixel center,
/// `α = min(α_max, σ · exp(-½ (p-μ)ᵀ Σ⁻¹ (p-μ)))`.
///
/// Contributions outside the 3σ footprint are defined to be exactly zero.
/// The paper (and the original 3D-GS) use the 3-sigma rule to bound a
/// splat's influence during tile identification; clamping the α evaluation
/// to the same boundary makes tile identification *exact* instead of merely
/// conservative, so the rendered image is bit-identical across tile sizes,
/// boundary methods and the GS-TG grouping pipeline — which is the
/// losslessness property the experiments verify.
#[inline]
pub fn alpha_at(splat: &ProjectedGaussian, pixel: Vec2) -> f32 {
    let d = pixel - splat.mean;
    let mahalanobis_sq = d.dot(splat.inv_cov.mul_vec(d));
    if !(0.0..=MAHALANOBIS_CUTOFF).contains(&mahalanobis_sq) {
        return 0.0;
    }
    (splat.opacity * (-0.5 * mahalanobis_sq).exp()).min(ALPHA_MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splat_types::Mat2;

    fn splat(
        mean: Vec2,
        sigma: f32,
        opacity: f32,
        color: Rgb,
        depth: f32,
        index: u32,
    ) -> ProjectedGaussian {
        let cov = Mat2::from_symmetric(sigma * sigma, 0.0, sigma * sigma);
        ProjectedGaussian {
            index,
            depth,
            mean,
            cov,
            inv_cov: cov.inverse().unwrap(),
            opacity,
            color,
        }
    }

    fn tile() -> TileRect {
        TileRect::new(0.0, 0.0, 16.0, 16.0)
    }

    #[test]
    fn empty_tile_renders_background() {
        let out = rasterize_tile(&[], &[], &tile(), Rgb::splat(0.25));
        assert_eq!(out.pixels.len(), 256);
        assert!(out
            .pixels
            .iter()
            .all(|p| p.max_abs_diff(Rgb::splat(0.25)) < 1e-6));
        assert_eq!(out.counts.alpha_computations, 0);
        assert_eq!(out.counts.pixels, 256);
    }

    #[test]
    fn alpha_peaks_at_center_and_decays() {
        let s = splat(Vec2::new(8.0, 8.0), 2.0, 0.8, Rgb::WHITE, 1.0, 0);
        let center = alpha_at(&s, Vec2::new(8.0, 8.0));
        let off = alpha_at(&s, Vec2::new(12.0, 8.0));
        assert!((center - 0.8).abs() < 1e-5);
        assert!(off < center && off > 0.0);
    }

    #[test]
    fn alpha_is_clamped_to_max() {
        let s = splat(Vec2::new(8.0, 8.0), 2.0, 1.0, Rgb::WHITE, 1.0, 0);
        assert!(alpha_at(&s, Vec2::new(8.0, 8.0)) <= ALPHA_MAX);
    }

    #[test]
    fn opaque_near_splat_occludes_far_splat() {
        let near = splat(
            Vec2::new(8.0, 8.0),
            6.0,
            0.99,
            Rgb::new(1.0, 0.0, 0.0),
            1.0,
            0,
        );
        let far = splat(
            Vec2::new(8.0, 8.0),
            6.0,
            0.99,
            Rgb::new(0.0, 1.0, 0.0),
            2.0,
            1,
        );
        let projected = vec![near, far];
        let out = rasterize_tile(&[0, 1], &projected, &tile(), Rgb::BLACK);
        // Center pixel is dominated by the near (red) splat.
        let center = out.pixels[8 * 16 + 8];
        assert!(center.r > 0.9);
        assert!(center.g < 0.1);
    }

    #[test]
    fn blend_order_matters() {
        let red = splat(
            Vec2::new(8.0, 8.0),
            6.0,
            0.6,
            Rgb::new(1.0, 0.0, 0.0),
            1.0,
            0,
        );
        let green = splat(
            Vec2::new(8.0, 8.0),
            6.0,
            0.6,
            Rgb::new(0.0, 1.0, 0.0),
            2.0,
            1,
        );
        let projected = vec![red, green];
        let front_red = rasterize_tile(&[0, 1], &projected, &tile(), Rgb::BLACK);
        let front_green = rasterize_tile(&[1, 0], &projected, &tile(), Rgb::BLACK);
        let a = front_red.pixels[8 * 16 + 8];
        let b = front_green.pixels[8 * 16 + 8];
        assert!(a.r > a.g);
        assert!(b.g > b.r);
    }

    #[test]
    fn low_alpha_splats_cost_computation_but_not_blending() {
        // A splat whose contribution is everywhere below 1/255.
        let faint = splat(Vec2::new(8.0, 8.0), 4.0, 0.002, Rgb::WHITE, 1.0, 0);
        let out = rasterize_tile(&[0], &[faint], &tile(), Rgb::BLACK);
        assert_eq!(out.counts.alpha_computations, 256);
        assert_eq!(out.counts.blend_operations, 0);
    }

    #[test]
    fn early_exit_triggers_behind_opaque_stack() {
        // Many fully opaque splats stacked: after a few, transmittance hits
        // the epsilon and the remaining splats are skipped.
        let projected: Vec<ProjectedGaussian> = (0..50)
            .map(|i| splat(Vec2::new(8.0, 8.0), 20.0, 0.99, Rgb::WHITE, i as f32, i))
            .collect();
        let order: Vec<u32> = (0..50).collect();
        let out = rasterize_tile(&order, &projected, &tile(), Rgb::BLACK);
        assert!(out.counts.early_exits > 0);
        // Far fewer than 50 α-computations per pixel on average.
        assert!(out.counts.alpha_computations < 50 * 256 / 2);
    }

    #[test]
    fn distant_splat_contributes_nothing_outside_footprint() {
        let far_away = splat(Vec2::new(200.0, 200.0), 1.0, 0.9, Rgb::WHITE, 1.0, 0);
        let out = rasterize_tile(&[0], &[far_away], &tile(), Rgb::BLACK);
        assert_eq!(out.counts.blend_operations, 0);
        assert!(out.pixels.iter().all(|p| p.max_abs_diff(Rgb::BLACK) < 1e-6));
    }

    #[test]
    fn clipped_tile_dimensions_are_respected() {
        let rect = TileRect::new(0.0, 0.0, 10.0, 7.0);
        let out = rasterize_tile(&[], &[], &rect, Rgb::BLACK);
        assert_eq!(out.width, 10);
        assert_eq!(out.height, 7);
        assert_eq!(out.pixels.len(), 70);
    }

    #[test]
    fn transmittance_conservation() {
        // With a semi-transparent splat over a white background, the pixel
        // is a convex combination of splat color and background.
        let s = splat(
            Vec2::new(8.0, 8.0),
            10.0,
            0.5,
            Rgb::new(1.0, 0.0, 0.0),
            1.0,
            0,
        );
        let out = rasterize_tile(&[0], &[s], &tile(), Rgb::WHITE);
        let c = out.pixels[8 * 16 + 8];
        assert!((c.r - 1.0).abs() < 1e-3); // red from both
        assert!((c.g - 0.5).abs() < 0.02); // half the white background
        assert!(c.g > 0.0 && c.g < 1.0);
    }

    #[test]
    fn in_place_rasterization_matches_the_buffered_kernel() {
        let projected: Vec<ProjectedGaussian> = (0..6)
            .map(|i| {
                splat(
                    Vec2::new(3.0 + 2.0 * i as f32, 8.0),
                    4.0,
                    0.5,
                    Rgb::new(0.2 * i as f32, 0.5, 1.0 - 0.1 * i as f32),
                    1.0 + i as f32,
                    i,
                )
            })
            .collect();
        let order: Vec<u32> = (0..6).collect();
        let rect = TileRect::new(0.0, 0.0, 16.0, 16.0);
        let background = Rgb::splat(0.1);

        let buffered = rasterize_tile(&order, &projected, &rect, background);

        let mut image = crate::Framebuffer::new(16, 16, Rgb::BLACK);
        let mut counts = StageCounts::new();
        rasterize_tile_into(
            &order,
            &projected,
            &rect,
            background,
            &mut image,
            &mut counts,
        );

        assert_eq!(counts, buffered.counts);
        for y in 0..16u32 {
            for x in 0..16u32 {
                assert_eq!(
                    image.pixel(x, y),
                    buffered.pixels[(y * 16 + x) as usize],
                    "pixel ({x},{y})"
                );
            }
        }
    }

    /// A varied splat population: an opaque stack (drives the early-exit),
    /// faint splats (α-cull), an off-tile splat (cutoff) and ordinary
    /// semi-transparent ones.
    fn mixed_splats() -> (Vec<ProjectedGaussian>, Vec<u32>) {
        let mut projected = Vec::new();
        for i in 0..4u32 {
            projected.push(splat(
                Vec2::new(4.0 + i as f32, 6.0),
                5.0,
                0.97,
                Rgb::new(0.9, 0.1 * i as f32, 0.3),
                1.0 + i as f32,
                i,
            ));
        }
        projected.push(splat(Vec2::new(10.0, 3.0), 4.0, 0.002, Rgb::WHITE, 5.0, 4));
        projected.push(splat(Vec2::new(60.0, 60.0), 1.0, 0.9, Rgb::WHITE, 6.0, 5));
        for i in 6..11u32 {
            projected.push(splat(
                Vec2::new(1.3 * i as f32, 12.0 - i as f32),
                2.5,
                0.4,
                Rgb::new(0.1, 0.8, 0.2 + 0.05 * i as f32),
                i as f32,
                i,
            ));
        }
        let order: Vec<u32> = (0..projected.len() as u32).collect();
        (projected, order)
    }

    fn bits(p: Rgb) -> [u32; 3] {
        [p.r.to_bits(), p.g.to_bits(), p.b.to_bits()]
    }

    #[test]
    fn wide_modes_are_bit_identical_to_scalar_with_identical_counters() {
        let (projected, order) = mixed_splats();
        let background = Rgb::new(0.2, 0.3, 0.4);
        let sentinel = Rgb::new(-1.0, -2.0, -3.0);
        // Every clipped width from a lone tail pixel through two full
        // 8-lane chunks plus a tail, at a one-row, an odd and a full tile
        // height. The rect sits off the framebuffer origin so the row
        // slices start mid-row.
        let (x0, y0) = (2u32, 1u32);
        for h in [1u32, 7, 16] {
            for w in 1u32..=17 {
                let rect = TileRect::new(x0 as f32, y0 as f32, (x0 + w) as f32, (y0 + h) as f32);
                let scalar =
                    rasterize_tile_with(&order, &projected, &rect, background, SimdMode::Scalar);
                for mode in SimdMode::ALL {
                    let buffered = rasterize_tile_with(&order, &projected, &rect, background, mode);
                    assert_eq!(
                        buffered.counts, scalar.counts,
                        "{mode:?} counters at {w}x{h}"
                    );
                    for (i, (a, b)) in scalar.pixels.iter().zip(&buffered.pixels).enumerate() {
                        assert_eq!(bits(*a), bits(*b), "{mode:?} pixel {i} at {w}x{h}");
                    }

                    let mut image = crate::Framebuffer::new(x0 + 18, y0 + 17, sentinel);
                    let mut counts = StageCounts::new();
                    rasterize_tile_into_with(
                        &order,
                        &projected,
                        &rect,
                        background,
                        mode,
                        &mut image,
                        &mut counts,
                    );
                    assert_eq!(
                        counts, scalar.counts,
                        "{mode:?} in-place counters at {w}x{h}"
                    );
                    for y in 0..image.height() {
                        for x in 0..image.width() {
                            let expected = if (x0..x0 + w).contains(&x) && (y0..y0 + h).contains(&y)
                            {
                                scalar.pixels[((y - y0) * w + (x - x0)) as usize]
                            } else {
                                sentinel
                            };
                            assert_eq!(
                                bits(image.pixel(x, y)),
                                bits(expected),
                                "{mode:?} in-place pixel ({x},{y}) at {w}x{h}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn wide_in_place_rasterization_matches_buffered_and_charges_identically() {
        let (projected, order) = mixed_splats();
        let background = Rgb::splat(0.15);
        let rect = TileRect::new(2.0, 1.0, 15.0, 12.0);
        for mode in [SimdMode::Wide8] {
            let buffered = rasterize_tile_with(&order, &projected, &rect, background, mode);
            let mut image = crate::Framebuffer::new(16, 16, Rgb::BLACK);
            let mut counts = StageCounts::new();
            rasterize_tile_into_with(
                &order,
                &projected,
                &rect,
                background,
                mode,
                &mut image,
                &mut counts,
            );
            assert_eq!(counts, buffered.counts, "{mode:?}");
            for y in 1..12u32 {
                for x in 2..15u32 {
                    assert_eq!(
                        image.pixel(x, y),
                        buffered.pixels[((y - 1) * 13 + (x - 2)) as usize],
                        "{mode:?} pixel ({x},{y})"
                    );
                }
            }
        }
    }

    #[test]
    fn early_exit_stack_charges_identically_across_lane_widths() {
        let projected: Vec<ProjectedGaussian> = (0..50)
            .map(|i| splat(Vec2::new(8.0, 8.0), 20.0, 0.99, Rgb::WHITE, i as f32, i))
            .collect();
        let order: Vec<u32> = (0..50).collect();
        let scalar = rasterize_tile_with(&order, &projected, &tile(), Rgb::BLACK, SimdMode::Scalar);
        let wide = rasterize_tile_with(&order, &projected, &tile(), Rgb::BLACK, SimdMode::Wide8);
        assert!(scalar.counts.early_exits > 0);
        assert_eq!(wide.counts, scalar.counts);
        assert_eq!(wide.pixels, scalar.pixels);
    }

    #[test]
    fn degenerate_rects_rasterize_nothing() {
        let (projected, order) = mixed_splats();
        // Zero-width, zero-height and fully empty rects return an empty
        // raster without charging any work.
        for rect in [
            TileRect::new(4.0, 2.0, 4.0, 9.0),
            TileRect::new(3.0, 5.0, 11.0, 5.0),
            TileRect::new(7.0, 7.0, 7.0, 7.0),
        ] {
            let out = rasterize_tile(&order, &projected, &rect, Rgb::WHITE);
            assert_eq!(out.width * out.height, 0, "{rect:?}");
            assert!(out.pixels.is_empty(), "{rect:?}");
            assert_eq!(out.counts, StageCounts::new(), "{rect:?}");

            let mut image = crate::Framebuffer::new(16, 16, Rgb::BLACK);
            let mut counts = StageCounts::new();
            rasterize_tile_into(
                &order,
                &projected,
                &rect,
                Rgb::WHITE,
                &mut image,
                &mut counts,
            );
            assert_eq!(counts, StageCounts::new(), "{rect:?}");
            assert!(image.pixel(7, 7).max_abs_diff(Rgb::BLACK) < 1e-9);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "inverted tile rect")]
    fn inverted_rects_are_rejected_in_debug_builds() {
        let rect = TileRect::new(10.0, 0.0, 2.0, 16.0);
        let _ = rasterize_tile(&[], &[], &rect, Rgb::BLACK);
    }

    #[test]
    fn thresholds_match_reference_implementation() {
        assert!((ALPHA_CULL_THRESHOLD - 1.0 / 255.0).abs() < 1e-9);
        assert!((TRANSMITTANCE_EPSILON - 1e-4).abs() < 1e-9);
    }
}
