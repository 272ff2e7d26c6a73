//! Screen-space splat footprints and tile intersection tests.
//!
//! Tile identification asks, for every projected splat, which tiles its
//! 3σ extent touches. The paper compares three boundary methods (Fig. 2):
//!
//! * **AABB** — the original 3D-GS conservatively uses a square box whose
//!   half-extent is `3·√λ_max` (the largest eigenvalue of the 2D
//!   covariance). Cheapest test, most false positives.
//! * **OBB** — GSCore uses the oriented rectangle spanned by the ellipse's
//!   principal axes with half-extents `3·√λ_max` × `3·√λ_min`; tested
//!   against a tile with a separating-axis test.
//! * **Ellipse** — FlashGS tests the exact 3σ ellipse against the tile
//!   rectangle (a box-constrained minimization of the Mahalanobis form).
//!
//! [`GaussianFootprint::band_span`] answers the same question a whole tile
//! row at a time: the x-interval the footprint covers inside a horizontal
//! band, in closed form for each method. A rectangle passes
//! [`GaussianFootprint::intersects`] exactly when its x-range overlaps the
//! span of its band (up to rounding), so one span replaces a row of tests.
//!
//! The rectangle type and the 3σ constants live in [`splat_core::rect`]
//! (they are shared with the blending kernel) and are re-exported here.

pub use splat_core::{TileRect, MAHALANOBIS_CUTOFF, SIGMA_EXTENT};

use crate::config::BoundaryMethod;
use splat_types::{Mat2, Vec2};

/// The screen-space footprint of one projected splat: everything the
/// boundary tests need, precomputed once per splat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianFootprint {
    /// Projected center in pixels.
    pub mean: Vec2,
    /// Inverse of the 2D covariance (the conic used by α-computation).
    pub inv_cov: Mat2,
    /// Unit vector of the major principal axis.
    pub axis_major: Vec2,
    /// Unit vector of the minor principal axis.
    pub axis_minor: Vec2,
    /// 3σ extent along the major axis, in pixels.
    pub radius_major: f32,
    /// 3σ extent along the minor axis, in pixels.
    pub radius_minor: f32,
}

impl GaussianFootprint {
    /// Builds a footprint from the projected mean and 2D covariance.
    ///
    /// Returns `None` when the covariance is degenerate (non-invertible),
    /// which mirrors the reference implementation culling such splats.
    pub fn from_covariance(mean: Vec2, cov: Mat2) -> Option<Self> {
        let inv_cov = cov.inverse().ok()?;
        let (l_max, l_min) = cov.symmetric_eigenvalues();
        if l_max <= 0.0 || l_min <= 0.0 {
            return None;
        }
        let (axis_major, axis_minor) = cov.symmetric_eigenvectors();
        Some(Self {
            mean,
            inv_cov,
            axis_major,
            axis_minor,
            radius_major: SIGMA_EXTENT * l_max.sqrt(),
            radius_minor: SIGMA_EXTENT * l_min.sqrt(),
        })
    }

    /// Half-extent of the conservative square AABB used by the original
    /// 3D-GS (3σ of the largest eigenvalue in both axes).
    #[inline]
    pub fn aabb_half_extent(&self) -> f32 {
        self.radius_major
    }

    /// Tight axis-aligned half extents of the 3σ ellipse, used to bound the
    /// candidate tile range for the OBB and ellipse tests.
    pub fn tight_half_extent(&self) -> Vec2 {
        // Extent of an ellipse along a coordinate axis e is
        // sqrt(Σ r_i² (a_i · e)²) over the principal axes a_i.
        let ex = ((self.radius_major * self.axis_major.x).powi(2)
            + (self.radius_minor * self.axis_minor.x).powi(2))
        .sqrt();
        let ey = ((self.radius_major * self.axis_major.y).powi(2)
            + (self.radius_minor * self.axis_minor.y).powi(2))
        .sqrt();
        Vec2::new(ex, ey)
    }

    /// The half-extent used to collect candidate tiles for a given boundary
    /// method (square for AABB, tight ellipse bounds otherwise).
    pub fn candidate_half_extent(&self, method: BoundaryMethod) -> Vec2 {
        match method {
            BoundaryMethod::Aabb => Vec2::splat(self.aabb_half_extent()),
            BoundaryMethod::Obb | BoundaryMethod::Ellipse => self.tight_half_extent(),
        }
    }

    /// The closed x-interval `(x_min, x_max)`, in pixels, that the footprint
    /// covers inside the horizontal band `y0 ≤ y ≤ y1` under `method`, or
    /// `None` when the footprint misses the band.
    ///
    /// A rectangle `[x0, x1] × [y0, y1]` passes
    /// [`intersects`](Self::intersects) exactly when `x_min ≤ x1` and
    /// `x_max ≥ x0`: bit for bit under AABB, and up to rounding near the
    /// boundary under OBB and Ellipse. Each method is closed form:
    ///
    /// * **AABB** — the square box when it reaches the band.
    /// * **OBB** — the oriented rectangle clipped to the band. Its widest
    ///   reach to the right lies at the height of its rightmost corner, or
    ///   at the nearer band edge when that corner is outside the band
    ///   (likewise to the left).
    /// * **Ellipse** — the conic's x-extreme when its height lies in the
    ///   band, and otherwise the conic's chord at the nearer band edge.
    pub fn band_span(&self, y0: f32, y1: f32, method: BoundaryMethod) -> Option<(f32, f32)> {
        match method {
            BoundaryMethod::Aabb => self.band_span_aabb(y0, y1),
            BoundaryMethod::Obb => self.band_span_obb(y0 - self.mean.y, y1 - self.mean.y),
            BoundaryMethod::Ellipse => self.band_span_ellipse(y0 - self.mean.y, y1 - self.mean.y),
        }
    }

    /// AABB span: the same comparisons as [`Self::intersects_aabb`].
    fn band_span_aabb(&self, y0: f32, y1: f32) -> Option<(f32, f32)> {
        let half = self.aabb_half_extent();
        (self.mean.y + half >= y0 && self.mean.y - half <= y1)
            .then_some((self.mean.x - half, self.mean.x + half))
    }

    /// OBB span over the band `dy0 ≤ y − μ.y ≤ dy1`.
    ///
    /// The slice width of a convex polygon is concave in the height, so the
    /// rightmost point inside the band is the rightmost corner when the
    /// band holds it, and otherwise where the nearer band edge cuts the
    /// corner's edge towards the topmost or bottommost corner (likewise to
    /// the left). Interpolating along an edge keeps the answer between the
    /// edge's corners even for a nearly horizontal edge.
    fn band_span_obb(&self, dy0: f32, dy1: f32) -> Option<(f32, f32)> {
        let (u, v) = (self.axis_major, self.axis_minor);
        let along_u = u * self.radius_major.copysign(u.x);
        let along_v = v * self.radius_minor.copysign(v.x);
        // Corner offsets: `right` has the largest x, `left = -right` the
        // smallest; `top` is whichever of the other two lies higher.
        let right = along_u + along_v;
        let side = along_u - along_v;
        let top = if side.y >= 0.0 { side } else { -side };
        let reach_y = right.y.abs().max(top.y);
        if dy0 > reach_y || dy1 < -reach_y {
            return None;
        }
        let edge_x = |p: Vec2, q: Vec2, y: f32| {
            let rise = q.y - p.y;
            let t = if rise == 0.0 {
                0.0
            } else {
                ((y - p.y) / rise).clamp(0.0, 1.0)
            };
            p.x + t * (q.x - p.x)
        };
        let extreme_x = |corner: Vec2| {
            if corner.y < dy0 {
                edge_x(corner, top, dy0)
            } else if corner.y > dy1 {
                edge_x(corner, -top, dy1)
            } else {
                corner.x
            }
        };
        Some((
            self.mean.x + extreme_x(-right),
            self.mean.x + extreme_x(right),
        ))
    }

    /// Ellipse span over the band `dy0 ≤ y − μ.y ≤ dy1`, from the conic
    /// `q(d) = a·dx² + 2b·dx·dy + c·dy²` bounded by the 3σ cutoff.
    fn band_span_ellipse(&self, dy0: f32, dy1: f32) -> Option<(f32, f32)> {
        let a = self.inv_cov.at(0, 0);
        let b = self.inv_cov.at(0, 1);
        let c = self.inv_cov.at(1, 1);
        let det = a * c - b * b;
        // At height dy the chord is `(-b·dy ± √chord_sq(dy)) / a`.
        let chord_sq = |dy: f32| MAHALANOBIS_CUTOFF * a - det * dy * dy;
        let nearest = dy0.max(0.0).min(dy1);
        if chord_sq(nearest) < 0.0 {
            return None;
        }
        // Height of the rightmost point, 3·Σxy/√Σxx; the leftmost point is
        // its mirror image through the center.
        let extreme_y = -SIGMA_EXTENT * b / (c * det).sqrt();
        let right = extreme_y.max(dy0).min(dy1);
        let left = (-extreme_y).max(dy0).min(dy1);
        let inv_a = 1.0 / a;
        let x_max = (-b * right + chord_sq(right).max(0.0).sqrt()) * inv_a;
        let x_min = (-b * left - chord_sq(left).max(0.0).sqrt()) * inv_a;
        Some((self.mean.x + x_min, self.mean.x + x_max))
    }

    /// Squared Mahalanobis distance of a pixel-space point from the splat
    /// center: `(p-μ)ᵀ Σ⁻¹ (p-μ)`.
    #[inline]
    pub fn mahalanobis_sq(&self, p: Vec2) -> f32 {
        let d = p - self.mean;
        d.dot(self.inv_cov.mul_vec(d))
    }

    /// Tests whether the footprint intersects a rectangle under the given
    /// boundary method.
    pub fn intersects(&self, rect: &TileRect, method: BoundaryMethod) -> bool {
        match method {
            BoundaryMethod::Aabb => self.intersects_aabb(rect),
            BoundaryMethod::Obb => self.intersects_obb(rect),
            BoundaryMethod::Ellipse => self.intersects_ellipse(rect),
        }
    }

    /// AABB test: overlap between the square box and the tile rectangle.
    fn intersects_aabb(&self, rect: &TileRect) -> bool {
        let half = self.aabb_half_extent();
        self.mean.x + half >= rect.x0
            && self.mean.x - half <= rect.x1
            && self.mean.y + half >= rect.y0
            && self.mean.y - half <= rect.y1
    }

    /// OBB test: separating-axis test between the oriented 3σ rectangle and
    /// the axis-aligned tile rectangle.
    fn intersects_obb(&self, rect: &TileRect) -> bool {
        let rect_center = rect.center();
        let rect_half = rect.half_extent();
        let delta = self.mean - rect_center;

        // Axes to test: tile axes (x, y) and OBB axes (major, minor).
        let obb_axes = [self.axis_major, self.axis_minor];
        let obb_radii = [self.radius_major, self.radius_minor];

        // Tile axes.
        for (axis, tile_half) in [
            (Vec2::new(1.0, 0.0), rect_half.x),
            (Vec2::new(0.0, 1.0), rect_half.y),
        ] {
            let obb_proj = obb_radii[0] * obb_axes[0].dot(axis).abs()
                + obb_radii[1] * obb_axes[1].dot(axis).abs();
            if delta.dot(axis).abs() > tile_half + obb_proj {
                return false;
            }
        }
        // OBB axes.
        for i in 0..2 {
            let axis = obb_axes[i];
            let tile_proj = rect_half.x * axis.x.abs() + rect_half.y * axis.y.abs();
            if delta.dot(axis).abs() > obb_radii[i] + tile_proj {
                return false;
            }
        }
        true
    }

    /// Exact ellipse test: does any point of the rectangle lie within the
    /// 3σ Mahalanobis boundary?
    ///
    /// If the center is inside the rectangle the answer is trivially yes;
    /// otherwise the constrained minimum of the (convex) Mahalanobis form
    /// over the rectangle lies on its boundary, so the four edges are
    /// minimized in closed form.
    fn intersects_ellipse(&self, rect: &TileRect) -> bool {
        if rect.contains(self.mean) {
            return true;
        }
        let corners = [
            Vec2::new(rect.x0, rect.y0),
            Vec2::new(rect.x1, rect.y0),
            Vec2::new(rect.x1, rect.y1),
            Vec2::new(rect.x0, rect.y1),
        ];
        let edges = [
            (corners[0], corners[1]),
            (corners[1], corners[2]),
            (corners[2], corners[3]),
            (corners[3], corners[0]),
        ];
        let mut min_d2 = f32::INFINITY;
        for (a, b) in edges {
            min_d2 = min_d2.min(self.min_mahalanobis_on_segment(a, b));
            if min_d2 <= MAHALANOBIS_CUTOFF {
                return true;
            }
        }
        min_d2 <= MAHALANOBIS_CUTOFF
    }

    /// Minimum of the squared Mahalanobis distance over the segment
    /// `a + t (b - a)`, `t ∈ [0, 1]` (closed-form for a 1D quadratic).
    fn min_mahalanobis_on_segment(&self, a: Vec2, b: Vec2) -> f32 {
        let d = b - a;
        let m = a - self.mean;
        let ad = self.inv_cov.mul_vec(d);
        let quad = d.dot(ad);
        let lin = m.dot(ad);
        let t = if quad.abs() < 1e-12 {
            0.0
        } else {
            (-lin / quad).clamp(0.0, 1.0)
        };
        let p = a + d * t;
        self.mahalanobis_sq(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splat_types::rng::Rng;

    /// Circular footprint of radius 3σ·σ = 3·σ pixels.
    fn circular(mean: Vec2, sigma: f32) -> GaussianFootprint {
        GaussianFootprint::from_covariance(
            mean,
            Mat2::from_symmetric(sigma * sigma, 0.0, sigma * sigma),
        )
        .expect("non-degenerate")
    }

    /// Elongated footprint rotated by `angle`.
    fn elongated(mean: Vec2, sigma_major: f32, sigma_minor: f32, angle: f32) -> GaussianFootprint {
        let (s, c) = angle.sin_cos();
        // R diag(a², b²) Rᵀ
        let a2 = sigma_major * sigma_major;
        let b2 = sigma_minor * sigma_minor;
        let cov = Mat2::from_symmetric(
            c * c * a2 + s * s * b2,
            c * s * (a2 - b2),
            s * s * a2 + c * c * b2,
        );
        GaussianFootprint::from_covariance(mean, cov).expect("non-degenerate")
    }

    #[test]
    fn degenerate_covariance_is_rejected() {
        assert!(GaussianFootprint::from_covariance(Vec2::ZERO, Mat2::ZERO).is_none());
    }

    #[test]
    fn isotropic_footprint_has_equal_radii() {
        let f = circular(Vec2::ZERO, 2.0);
        assert!((f.radius_major - 6.0).abs() < 1e-4);
        assert!((f.radius_minor - 6.0).abs() < 1e-4);
        assert!((f.aabb_half_extent() - 6.0).abs() < 1e-4);
    }

    #[test]
    fn tight_extent_of_axis_aligned_ellipse() {
        let f = elongated(Vec2::ZERO, 4.0, 1.0, 0.0);
        let ext = f.tight_half_extent();
        assert!((ext.x - 12.0).abs() < 1e-3);
        assert!((ext.y - 3.0).abs() < 1e-3);
    }

    #[test]
    fn all_methods_agree_for_center_inside_tile() {
        let f = circular(Vec2::new(8.0, 8.0), 1.0);
        let tile = TileRect::new(0.0, 0.0, 16.0, 16.0);
        for m in BoundaryMethod::ALL {
            assert!(f.intersects(&tile, m), "method {m}");
        }
    }

    #[test]
    fn all_methods_agree_for_far_away_tile() {
        let f = circular(Vec2::new(8.0, 8.0), 1.0);
        let tile = TileRect::new(200.0, 200.0, 216.0, 216.0);
        for m in BoundaryMethod::ALL {
            assert!(!f.intersects(&tile, m), "method {m}");
        }
    }

    #[test]
    fn aabb_is_more_conservative_than_obb_for_diagonal_splats() {
        // A long thin splat at 45° near a tile corner: the square AABB
        // reaches the tile, the oriented box does not.
        let f = elongated(Vec2::new(40.0, 0.0), 10.0, 1.0, std::f32::consts::FRAC_PI_4);
        let tile = TileRect::new(0.0, 0.0, 16.0, 16.0);
        // AABB half-extent is 30 px in both axes → reaches x≤16.
        assert!(f.intersects(&tile, BoundaryMethod::Aabb));
        // The oriented box points away from the tile corner.
        assert!(!f.intersects(&tile, BoundaryMethod::Ellipse));
    }

    #[test]
    fn obb_is_at_least_as_tight_as_aabb_never_misses_ellipse_hits() {
        // Sanity on a grid of tiles around an anisotropic splat.
        let f = elongated(Vec2::new(50.0, 50.0), 6.0, 1.5, 0.7);
        for ty in 0..7 {
            for tx in 0..7 {
                let tile = TileRect::new(
                    tx as f32 * 16.0,
                    ty as f32 * 16.0,
                    (tx + 1) as f32 * 16.0,
                    (ty + 1) as f32 * 16.0,
                );
                let aabb = f.intersects(&tile, BoundaryMethod::Aabb);
                let obb = f.intersects(&tile, BoundaryMethod::Obb);
                let ellipse = f.intersects(&tile, BoundaryMethod::Ellipse);
                // Hierarchy: ellipse ⊆ obb ⊆ aabb.
                assert!(
                    !ellipse || obb,
                    "ellipse hit must be an OBB hit ({tx},{ty})"
                );
                assert!(!obb || aabb, "OBB hit must be an AABB hit ({tx},{ty})");
            }
        }
    }

    #[test]
    fn ellipse_test_counts_fewer_tiles_for_elongated_splats() {
        // Mirrors Fig. 2: the same splat intersects fewer tiles under
        // tighter boundary methods.
        let f = elongated(Vec2::new(64.0, 64.0), 8.0, 2.0, 0.5);
        let count = |m: BoundaryMethod| {
            let mut n = 0;
            for ty in 0..8 {
                for tx in 0..8 {
                    let tile = TileRect::new(
                        tx as f32 * 16.0,
                        ty as f32 * 16.0,
                        (tx + 1) as f32 * 16.0,
                        (ty + 1) as f32 * 16.0,
                    );
                    if f.intersects(&tile, m) {
                        n += 1;
                    }
                }
            }
            n
        };
        let aabb = count(BoundaryMethod::Aabb);
        let obb = count(BoundaryMethod::Obb);
        let ellipse = count(BoundaryMethod::Ellipse);
        assert!(aabb >= obb, "aabb {aabb} >= obb {obb}");
        assert!(obb >= ellipse, "obb {obb} >= ellipse {ellipse}");
        assert!(
            aabb > ellipse,
            "expected strict reduction, aabb {aabb} ellipse {ellipse}"
        );
    }

    #[test]
    fn mahalanobis_is_zero_at_center() {
        let f = elongated(Vec2::new(3.0, 4.0), 2.0, 1.0, 0.3);
        assert!(f.mahalanobis_sq(Vec2::new(3.0, 4.0)) < 1e-6);
    }

    #[test]
    fn mahalanobis_matches_sigma_along_axes() {
        let f = elongated(Vec2::ZERO, 2.0, 1.0, 0.0);
        // One sigma along the major axis (x): distance² = 1.
        assert!((f.mahalanobis_sq(Vec2::new(2.0, 0.0)) - 1.0).abs() < 1e-3);
        // Three sigma along the minor axis (y): distance² = 9.
        assert!((f.mahalanobis_sq(Vec2::new(0.0, 3.0)) - 9.0).abs() < 1e-3);
    }

    #[test]
    fn ellipse_boundary_is_respected() {
        let f = circular(Vec2::new(100.0, 100.0), 2.0); // 3σ radius = 6 px
                                                        // Tile whose nearest corner is 5 px away → intersects.
        let near = TileRect::new(103.5, 103.5, 119.5, 119.5);
        assert!(f.intersects(&near, BoundaryMethod::Ellipse));
        // Tile whose nearest corner is ~8.5 px away → no intersection.
        let far = TileRect::new(106.0, 106.0, 122.0, 122.0);
        assert!(!f.intersects(&far, BoundaryMethod::Ellipse));
    }

    /// The tightness hierarchy ellipse ⊆ OBB ⊆ AABB must hold for any
    /// splat and tile: a tighter method never reports an intersection that
    /// a looser method misses. Swept over a deterministic random sample of
    /// splats and tiles.
    #[test]
    fn boundary_method_hierarchy_holds_for_sampled_splats() {
        let mut rng = Rng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
        for case in 0..500 {
            let mx = rng.range_f32(0.0, 256.0);
            let my = rng.range_f32(0.0, 256.0);
            let s_major = rng.range_f32(0.5, 20.0);
            let ratio = rng.range_f32(0.05, 1.0);
            let angle = rng.range_f32(0.0, std::f32::consts::PI);
            let tx = rng.range_f32(0.0, 16.0).floor();
            let ty = rng.range_f32(0.0, 16.0).floor();
            let f = elongated(
                Vec2::new(mx, my),
                s_major,
                (s_major * ratio).max(0.1),
                angle,
            );
            let tile = TileRect::new(tx * 16.0, ty * 16.0, (tx + 1.0) * 16.0, (ty + 1.0) * 16.0);
            let aabb = f.intersects(&tile, BoundaryMethod::Aabb);
            let obb = f.intersects(&tile, BoundaryMethod::Obb);
            let ellipse = f.intersects(&tile, BoundaryMethod::Ellipse);
            // The 3σ ellipse is inscribed in both the oriented box and the
            // square AABB, so an ellipse hit implies a hit for the other
            // two methods. (OBB and AABB are not ordered against each
            // other: a rotated OBB corner can poke outside the square.)
            assert!(!ellipse || obb, "case {case}: ellipse hit missed by OBB");
            assert!(!ellipse || aabb, "case {case}: ellipse hit missed by AABB");
        }
    }

    /// A near-isotropic covariance with a tiny off-diagonal once produced
    /// zero principal axes, collapsing the tight extent to the tile holding
    /// the mean. The extent must always reach 3σ along both image axes.
    #[test]
    fn tight_extent_of_near_isotropic_splats_reaches_three_sigma() {
        let mut rng = Rng::seed_from_u64(0x7173_0b0f_1e00_0001);
        let mut covs = vec![
            Mat2::from_symmetric(0.300543, 1.12e-7, 0.300550),
            Mat2::from_symmetric(0.300550, -1.12e-7, 0.300543),
            Mat2::from_symmetric(4.0, 1.0e-9, 4.0),
        ];
        for _ in 0..500 {
            let v = rng.range_f32(0.05, 50.0);
            let dv = v * rng.range_f32(-1e-5, 1e-5);
            let off = v * rng.range_f32(-1e-6, 1e-6);
            covs.push(Mat2::from_symmetric(v, off, v + dv));
        }
        for cov in covs {
            let f = GaussianFootprint::from_covariance(Vec2::new(80.0, 40.0), cov)
                .expect("non-degenerate");
            let ext = f.tight_half_extent();
            let want_x = SIGMA_EXTENT * cov.at(0, 0).sqrt() * (1.0 - 1e-6);
            let want_y = SIGMA_EXTENT * cov.at(1, 1).sqrt() * (1.0 - 1e-6);
            assert!(
                ext.x >= want_x && ext.y >= want_y,
                "{cov:?}: extent {ext:?} below ({want_x}, {want_y})"
            );
        }
    }

    /// `band_span` agrees with the per-rectangle test for every method on
    /// sampled splats and tiles: exactly under AABB, and under OBB and
    /// Ellipse wherever the answer does not flip when the tile grows or
    /// shrinks by 1e-3 px.
    #[test]
    fn band_span_overlap_matches_the_per_tile_test() {
        let mut rng = Rng::seed_from_u64(0xBA4D_5AA4_0000_0001);
        let mut borderline = 0;
        for case in 0..4000 {
            let mean = Vec2::new(rng.range_f32(-20.0, 140.0), rng.range_f32(-20.0, 140.0));
            let s_major = rng.range_f32(0.2, 30.0);
            let ratio = match case % 4 {
                0 => 1.0,
                1 => 0.01,
                _ => rng.range_f32(0.05, 1.0),
            };
            let angle = match case % 5 {
                0 => 0.0,
                1 => std::f32::consts::FRAC_PI_2,
                _ => rng.range_f32(0.0, std::f32::consts::PI),
            };
            let f = elongated(mean, s_major, (s_major * ratio).max(0.05), angle);
            let size = [8.0, 16.0, 32.0][case % 3];
            let tx = rng.range_f32(-1.0, 9.0).floor();
            let ty = rng.range_f32(-1.0, 9.0).floor();
            let tile = TileRect::new(tx * size, ty * size, (tx + 1.0) * size, (ty + 1.0) * size);
            for m in BoundaryMethod::ALL {
                let hit = f.intersects(&tile, m);
                let span = f.band_span(tile.y0, tile.y1, m);
                let overlap = span.is_some_and(|(x0, x1)| x0 <= tile.x1 && x1 >= tile.x0);
                if m == BoundaryMethod::Aabb {
                    assert_eq!(overlap, hit, "case {case}: AABB span disagrees");
                    continue;
                }
                let grown = TileRect::new(
                    tile.x0 - 1e-3,
                    tile.y0 - 1e-3,
                    tile.x1 + 1e-3,
                    tile.y1 + 1e-3,
                );
                let shrunk = TileRect::new(
                    tile.x0 + 1e-3,
                    tile.y0 + 1e-3,
                    tile.x1 - 1e-3,
                    tile.y1 - 1e-3,
                );
                if f.intersects(&grown, m) != f.intersects(&shrunk, m) {
                    borderline += 1;
                    continue;
                }
                assert_eq!(
                    overlap, hit,
                    "case {case}: {m} span {span:?} vs tile {tile:?} f {f:?}"
                );
            }
        }
        assert!(borderline < 40, "{borderline} borderline cases");
    }

    #[test]
    fn band_span_of_an_axis_aligned_ellipse_is_its_chord() {
        // Axis-aligned ellipse with 3σ radii 12 (x) and 6 (y) at (50, 50).
        let f = elongated(Vec2::new(50.0, 50.0), 4.0, 2.0, 0.0);
        // Band holding the center: the full width.
        let (x0, x1) = f.band_span(45.0, 55.0, BoundaryMethod::Ellipse).unwrap();
        assert!((x0 - 38.0).abs() < 1e-3 && (x1 - 62.0).abs() < 1e-3);
        // Band above the center: the chord at the nearer edge, y = 53,
        // where (dx/12)² + (3/6)² = 1.
        let half = 12.0 * (1.0f32 - 0.25).sqrt();
        let (x0, x1) = f.band_span(53.0, 70.0, BoundaryMethod::Ellipse).unwrap();
        assert!((x0 - (50.0 - half)).abs() < 1e-3 && (x1 - (50.0 + half)).abs() < 1e-3);
        // Band beyond the 3σ reach.
        assert!(f.band_span(56.5, 70.0, BoundaryMethod::Ellipse).is_none());
        assert!(f.band_span(20.0, 43.5, BoundaryMethod::Ellipse).is_none());
        // The OBB slice of an axis-aligned splat is its box; AABB is square.
        let (x0, x1) = f.band_span(53.0, 70.0, BoundaryMethod::Obb).unwrap();
        assert!((x0 - 38.0).abs() < 1e-3 && (x1 - 62.0).abs() < 1e-3);
        assert!(f.band_span(56.5, 70.0, BoundaryMethod::Obb).is_none());
        assert!(f.band_span(56.5, 70.0, BoundaryMethod::Aabb).is_some());
    }

    /// Any pixel inside the tile that is within the 3σ Mahalanobis
    /// boundary implies the ellipse test reports an intersection. Swept
    /// over a deterministic random sample.
    #[test]
    fn ellipse_test_is_complete_for_sampled_pixels() {
        let mut rng = Rng::seed_from_u64(0x1234_5678_9ABC_DEF1);
        let tile = TileRect::new(48.0, 48.0, 64.0, 64.0);
        for case in 0..500 {
            let mx = rng.range_f32(0.0, 128.0);
            let my = rng.range_f32(0.0, 128.0);
            let s_major = rng.range_f32(0.5, 10.0);
            let ratio = rng.range_f32(0.1, 1.0);
            let angle = rng.range_f32(0.0, std::f32::consts::PI);
            let px_frac = rng.range_f32(0.0, 1.0);
            let py_frac = rng.range_f32(0.0, 1.0);
            let f = elongated(
                Vec2::new(mx, my),
                s_major,
                (s_major * ratio).max(0.1),
                angle,
            );
            let p = Vec2::new(
                tile.x0 + px_frac * (tile.x1 - tile.x0),
                tile.y0 + py_frac * (tile.y1 - tile.y0),
            );
            if f.mahalanobis_sq(p) <= MAHALANOBIS_CUTOFF {
                assert!(
                    f.intersects(&tile, BoundaryMethod::Ellipse),
                    "case {case}: in-boundary pixel not reported"
                );
            }
        }
    }
}
