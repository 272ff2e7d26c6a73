//! Framebuffer and image comparison utilities.

use splat_types::Rgb;
use std::ops::Range;

/// A simple RGB framebuffer in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct Framebuffer {
    width: u32,
    height: u32,
    pixels: Vec<Rgb>,
}

impl Framebuffer {
    /// Creates a framebuffer filled with the given background color.
    pub fn new(width: u32, height: u32, background: Rgb) -> Self {
        Self {
            width,
            height,
            pixels: vec![background; (width as usize) * (height as usize)],
        }
    }

    /// Creates a black framebuffer (the background used by the reference
    /// 3D-GS rasterizer for evaluation).
    pub fn black(width: u32, height: u32) -> Self {
        Self::new(width, height, Rgb::BLACK)
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of pixels.
    #[inline]
    pub fn pixel_count(&self) -> usize {
        self.pixels.len()
    }

    /// Reads the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinates are out of bounds.
    #[inline]
    pub fn pixel(&self, x: u32, y: u32) -> Rgb {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.pixels[(y as usize) * (self.width as usize) + x as usize]
    }

    /// Writes the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinates are out of bounds.
    #[inline]
    pub fn set_pixel(&mut self, x: u32, y: u32, color: Rgb) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.pixels[(y as usize) * (self.width as usize) + x as usize] = color;
    }

    /// Mutable slice of row `y` covering columns `xs` — the span a tile
    /// row writes, handed to the blend kernel in one bounds check.
    ///
    /// # Panics
    ///
    /// Panics when the span is inverted or leaves the framebuffer.
    #[inline]
    pub fn row_mut(&mut self, y: u32, xs: Range<u32>) -> &mut [Rgb] {
        assert!(
            xs.start <= xs.end && xs.end <= self.width && y < self.height,
            "row span {xs:?} of row {y} out of bounds"
        );
        let row_start = (y as usize) * (self.width as usize);
        &mut self.pixels[row_start + xs.start as usize..row_start + xs.end as usize]
    }

    /// Raw pixel slice in row-major order.
    #[inline]
    pub fn pixels(&self) -> &[Rgb] {
        &self.pixels
    }

    /// Re-initializes the framebuffer to the given dimensions and
    /// background color, reusing the existing pixel allocation. A session
    /// rendering a trajectory at a fixed resolution therefore allocates the
    /// framebuffer exactly once.
    pub fn reset(&mut self, width: u32, height: u32, background: Rgb) {
        self.width = width;
        self.height = height;
        self.pixels.clear();
        self.pixels
            .resize((width as usize) * (height as usize), background);
    }

    /// Bytes currently reserved by the pixel buffer.
    pub fn footprint_bytes(&self) -> usize {
        self.pixels.capacity() * std::mem::size_of::<Rgb>()
    }

    /// Copies a full row of pixels into the framebuffer. Used by the
    /// tile-parallel rasterizer to write back without aliasing.
    pub fn write_region(&mut self, x0: u32, y0: u32, width: u32, rows: &[Rgb]) {
        let width = width as usize;
        assert_eq!(
            rows.len() % width,
            0,
            "region rows must be a multiple of width"
        );
        let height = rows.len() / width;
        for row in 0..height {
            let y = y0 as usize + row;
            let dst_start = y * self.width as usize + x0 as usize;
            let src_start = row * width;
            self.pixels[dst_start..dst_start + width]
                .copy_from_slice(&rows[src_start..src_start + width]);
        }
    }

    /// Upsamples this framebuffer to `(width, height)` by nearest-neighbor
    /// replication: destination pixel `(x, y)` copies source pixel
    /// `(x / 2, y / 2)` bit-exactly, so the operation is deterministic and
    /// reproducible — no filtering, no arithmetic on the pixel values.
    ///
    /// This is the delivery half of the half-resolution quality tier: the
    /// renderer draws at `ceil(width / 2) × ceil(height / 2)` (odd target
    /// dimensions round *outward* at render time), and this method restores
    /// the requested dimensions. Because of the outward rounding,
    /// `x / 2 < self.width` and `y / 2 < self.height` for every destination
    /// pixel — the lookup can never leave the source frame.
    ///
    /// # Panics
    ///
    /// Panics when the source is not exactly the outward-rounded half of
    /// the requested dimensions.
    pub fn upsample_nearest(&self, width: u32, height: u32) -> Self {
        assert_eq!(
            (self.width, self.height),
            (width.div_ceil(2), height.div_ceil(2)),
            "source must be the outward-rounded half of {width}x{height}"
        );
        let mut pixels = Vec::with_capacity((width as usize) * (height as usize));
        for y in 0..height {
            for x in 0..width {
                pixels.push(self.pixel(x / 2, y / 2));
            }
        }
        Self {
            width,
            height,
            pixels,
        }
    }

    /// Maximum absolute per-channel difference to another framebuffer.
    ///
    /// # Panics
    ///
    /// Panics when the dimensions differ.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "framebuffer dimensions differ"
        );
        self.pixels
            .iter()
            .zip(&other.pixels)
            .map(|(a, b)| a.max_abs_diff(*b))
            .fold(0.0, f32::max)
    }

    /// Peak signal-to-noise ratio against a reference image, in dB.
    /// Identical images return `f64::INFINITY`.
    pub fn psnr(&self, reference: &Self) -> f64 {
        assert_eq!(
            (self.width, self.height),
            (reference.width, reference.height),
            "framebuffer dimensions differ"
        );
        let mut mse = 0.0f64;
        for (a, b) in self.pixels.iter().zip(&reference.pixels) {
            let dr = f64::from(a.r - b.r);
            let dg = f64::from(a.g - b.g);
            let db = f64::from(a.b - b.b);
            mse += dr * dr + dg * dg + db * db;
        }
        mse /= (self.pixels.len() * 3) as f64;
        if mse <= 0.0 {
            f64::INFINITY
        } else {
            10.0 * (1.0 / mse).log10()
        }
    }

    /// Mean pixel value across all channels (cheap sanity metric used by
    /// tests to verify a render produced non-trivial output).
    pub fn mean_luminance(&self) -> f32 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        self.pixels.iter().map(|p| p.mean()).sum::<f32>() / self.pixels.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_fills_with_background() {
        let fb = Framebuffer::new(4, 3, Rgb::splat(0.25));
        assert_eq!(fb.pixel_count(), 12);
        assert_eq!(fb.pixel(3, 2), Rgb::splat(0.25));
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut fb = Framebuffer::black(8, 8);
        fb.set_pixel(5, 2, Rgb::new(0.1, 0.2, 0.3));
        assert_eq!(fb.pixel(5, 2), Rgb::new(0.1, 0.2, 0.3));
        assert_eq!(fb.pixel(2, 5), Rgb::BLACK);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let fb = Framebuffer::black(4, 4);
        let _ = fb.pixel(4, 0);
    }

    #[test]
    fn write_region_places_rows() {
        let mut fb = Framebuffer::black(4, 4);
        let region = vec![Rgb::WHITE; 4]; // 2x2 block
        fb.write_region(1, 1, 2, &region);
        assert_eq!(fb.pixel(1, 1), Rgb::WHITE);
        assert_eq!(fb.pixel(2, 2), Rgb::WHITE);
        assert_eq!(fb.pixel(0, 0), Rgb::BLACK);
        assert_eq!(fb.pixel(3, 3), Rgb::BLACK);
    }

    #[test]
    fn row_mut_spans_exactly_the_requested_columns() {
        let mut fb = Framebuffer::black(5, 3);
        assert_eq!(fb.row_mut(2, 1..4).len(), 3);
        fb.row_mut(2, 1..4).fill(Rgb::WHITE);
        assert!(fb.row_mut(1, 5..5).is_empty());
        for x in 0..5 {
            let expected = if (1..4).contains(&x) {
                Rgb::WHITE
            } else {
                Rgb::BLACK
            };
            assert_eq!(fb.pixel(x, 2), expected, "column {x}");
            assert_eq!(fb.pixel(x, 1), Rgb::BLACK, "column {x}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_mut_past_the_right_edge_panics() {
        let mut fb = Framebuffer::black(4, 4);
        let _ = fb.row_mut(0, 2..5);
    }

    #[test]
    fn identical_images_have_infinite_psnr_and_zero_diff() {
        let fb = Framebuffer::new(16, 16, Rgb::splat(0.5));
        assert_eq!(fb.max_abs_diff(&fb.clone()), 0.0);
        assert!(fb.psnr(&fb.clone()).is_infinite());
    }

    #[test]
    fn psnr_decreases_with_larger_error() {
        let reference = Framebuffer::new(8, 8, Rgb::splat(0.5));
        let mut small_err = reference.clone();
        small_err.set_pixel(0, 0, Rgb::splat(0.6));
        let mut large_err = reference.clone();
        large_err.set_pixel(0, 0, Rgb::splat(1.0));
        assert!(small_err.psnr(&reference) > large_err.psnr(&reference));
    }

    #[test]
    fn reset_reuses_the_pixel_allocation() {
        let mut fb = Framebuffer::new(8, 8, Rgb::WHITE);
        let footprint = fb.footprint_bytes();
        fb.set_pixel(1, 1, Rgb::BLACK);
        fb.reset(4, 4, Rgb::splat(0.5));
        assert_eq!((fb.width(), fb.height()), (4, 4));
        assert_eq!(fb.pixel(1, 1), Rgb::splat(0.5));
        assert_eq!(fb.footprint_bytes(), footprint);
    }

    #[test]
    fn upsample_nearest_replicates_pixels_bit_exactly() {
        // 3x2 source -> 6x4: every destination pixel equals src(x/2, y/2).
        let mut src = Framebuffer::black(3, 2);
        for y in 0..2 {
            for x in 0..3 {
                src.set_pixel(x, y, Rgb::new(x as f32, y as f32, 0.125));
            }
        }
        let up = src.upsample_nearest(6, 4);
        assert_eq!((up.width(), up.height()), (6, 4));
        for y in 0..4 {
            for x in 0..6 {
                assert_eq!(up.pixel(x, y), src.pixel(x / 2, y / 2));
            }
        }
    }

    #[test]
    fn upsample_nearest_covers_odd_target_dimensions() {
        // Odd 5x3 target renders at ceil-half 3x2; the last column/row of
        // the source covers the odd remainder.
        let mut src = Framebuffer::black(3, 2);
        src.set_pixel(2, 1, Rgb::WHITE);
        let up = src.upsample_nearest(5, 3);
        assert_eq!((up.width(), up.height()), (5, 3));
        assert_eq!(up.pixel(4, 2), Rgb::WHITE);
        assert_eq!(up.pixel(0, 0), Rgb::BLACK);
        // Upsampling is a pure copy: repeating it is bit-identical.
        assert_eq!(up, src.upsample_nearest(5, 3));
    }

    #[test]
    #[should_panic(expected = "outward-rounded half")]
    fn upsample_nearest_rejects_mismatched_source() {
        let src = Framebuffer::black(4, 4);
        let _ = src.upsample_nearest(16, 16);
    }

    #[test]
    fn mean_luminance_reflects_content() {
        let dark = Framebuffer::black(4, 4);
        let bright = Framebuffer::new(4, 4, Rgb::WHITE);
        assert!(dark.mean_luminance() < bright.mean_luminance());
    }

    #[test]
    #[should_panic(expected = "dimensions differ")]
    fn diff_of_mismatched_sizes_panics() {
        let a = Framebuffer::black(4, 4);
        let b = Framebuffer::black(5, 4);
        let _ = a.max_abs_diff(&b);
    }
}
