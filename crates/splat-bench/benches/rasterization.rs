//! Criterion benchmark of tile rasterization (α-computation + α-blending),
//! the stage whose efficiency the small tile size preserves. Every case
//! runs the production kernel (`SimdMode::default()`) next to the
//! per-pixel `Scalar` reference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use splat_core::SimdMode;
use splat_render::bounds::TileRect;
use splat_render::preprocess::ProjectedGaussian;
use splat_render::raster::rasterize_tile_with;
use splat_types::{Mat2, Rgb, Vec2};

fn make_splats(count: usize, sigma: f32) -> Vec<ProjectedGaussian> {
    (0..count)
        .map(|i| {
            let cov = Mat2::from_symmetric(sigma * sigma, 0.0, sigma * sigma);
            ProjectedGaussian {
                index: i as u32,
                depth: 1.0 + i as f32 * 0.01,
                mean: Vec2::new(8.0 + (i % 16) as f32, 8.0 + (i / 16 % 16) as f32),
                cov,
                inv_cov: cov.inverse().expect("invertible"),
                opacity: 0.4,
                color: Rgb::new(0.5, 0.3, 0.8),
            }
        })
        .collect()
}

fn raster_tile(c: &mut Criterion) {
    let mut group = c.benchmark_group("rasterize_tile_16x16");
    group.sample_size(50);
    for &count in &[16usize, 64, 256] {
        let splats = make_splats(count, 4.0);
        let order: Vec<u32> = (0..count as u32).collect();
        let rect = TileRect::new(0.0, 0.0, 16.0, 16.0);
        for simd in [SimdMode::default(), SimdMode::Scalar] {
            let id = BenchmarkId::new(format!("{}/gaussians", simd.label()), count);
            group.bench_with_input(id, &count, |b, _| {
                b.iter(|| rasterize_tile_with(&order, &splats, &rect, Rgb::BLACK, simd));
            });
        }
    }
    group.finish();
}

fn raster_tile_sizes(c: &mut Criterion) {
    // The same splat list rasterized over growing tile areas shows the
    // per-pixel cost scaling the paper's Fig. 7 is about.
    let splats = make_splats(64, 6.0);
    let order: Vec<u32> = (0..64u32).collect();
    let mut group = c.benchmark_group("rasterize_tile_area");
    group.sample_size(30);
    for &size in &[16u32, 32, 64] {
        let rect = TileRect::new(0.0, 0.0, size as f32, size as f32);
        for simd in [SimdMode::default(), SimdMode::Scalar] {
            let id = BenchmarkId::new(format!("{}/tile", simd.label()), size);
            group.bench_with_input(id, &size, |b, _| {
                b.iter(|| rasterize_tile_with(&order, &splats, &rect, Rgb::BLACK, simd));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, raster_tile, raster_tile_sizes);
criterion_main!(benches);
