//! Shared execution configuration for every pipeline.
//!
//! Before this crate existed the baseline and GS-TG configurations each
//! carried their own `threads` field and `with_threads` builder; this
//! module replaces both with one [`ExecutionConfig`] and the
//! [`HasExecution`] trait, so every pipeline configuration exposes the same
//! single thread-count knob.

/// How bitmask generation (and, more generally, hideable side work) is
/// scheduled relative to the sorting phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionModel {
    /// GPU (SIMT) execution: stages run strictly in sequence, so side work
    /// such as GS-TG's bitmask generation shows up in the preprocessing
    /// stage (Fig. 13 of the paper).
    #[default]
    GpuSequential,
    /// Dedicated accelerator: side work overlaps with sorting, hiding its
    /// latency (Section V of the paper).
    AcceleratorOverlapped,
}

/// Lane width of the chunked (SIMD-shaped) kernels used by the projection
/// transform and the tile blending inner loop.
///
/// The wide mode processes fixed-size `[f32; 8]` chunks whose per-lane
/// operations are the *same scalar operations in the same order* as the
/// scalar path (no fused multiply-add), so both modes produce bit-identical
/// images and identical operation counts — the knob only changes how the
/// work is laid out for the compiler's auto-vectorizer. `Wide8` is the
/// production default: it measured fastest on every benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimdMode {
    /// One splat / pixel at a time (the per-pixel reference path).
    Scalar,
    /// 8-wide chunked kernels (the production path).
    #[default]
    Wide8,
}

impl SimdMode {
    /// Every mode, scalar first.
    pub const ALL: [SimdMode; 2] = [SimdMode::Scalar, SimdMode::Wide8];

    /// Lane width of the chunked kernels (1 for the scalar path).
    #[inline]
    pub fn lanes(self) -> usize {
        match self {
            SimdMode::Scalar => 1,
            SimdMode::Wide8 => 8,
        }
    }

    /// Stable human-readable label (used by benches and reports).
    pub fn label(self) -> &'static str {
        match self {
            SimdMode::Scalar => "scalar",
            SimdMode::Wide8 => "wide8",
        }
    }
}

/// Pixel coverage strategy of the tile blending inner loop.
///
/// `RowSpans` walks, for every splat, only the per-row x-interval where the
/// splat's α can reach the 1/255 cull threshold (solved analytically from
/// the conic), and stops consuming a tile's sorted list once every pixel
/// has fired its transmittance early-exit. Skipped work is exactly work the
/// α-cull would have discarded, so both modes produce bit-identical pixels;
/// only `StageCounts::alpha_computations` (and the span counters) differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpanMode {
    /// Every (pixel, splat) pair of the tile is evaluated (the reference
    /// path).
    #[default]
    Full,
    /// Per-splat conservative row intervals plus the tile-saturation
    /// early-out.
    RowSpans,
}

impl SpanMode {
    /// Every mode, full walk first.
    pub const ALL: [SpanMode; 2] = [SpanMode::Full, SpanMode::RowSpans];

    /// Stable human-readable label (used by benches and reports).
    pub fn label(self) -> &'static str {
        match self {
            SpanMode::Full => "full",
            SpanMode::RowSpans => "rows",
        }
    }
}

/// Execution parameters shared by every pipeline configuration.
///
/// The struct is `#[non_exhaustive]`: construct it through
/// [`ExecutionConfig::default`], [`ExecutionConfig::sequential`] /
/// [`ExecutionConfig::parallel`] or [`ExecutionConfig::builder`], so future
/// execution knobs can be added without breaking callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub struct ExecutionConfig {
    /// Number of worker threads for the rasterization fan-out
    /// (1 = sequential; operation counts are unaffected either way).
    pub threads: usize,
    /// Scheduling model for hideable side work.
    pub model: ExecutionModel,
    /// Lane width of the chunked projection/blending kernels. Every mode is
    /// bit-identical; see [`SimdMode`].
    pub simd: SimdMode,
    /// Pixel coverage strategy of the blending loop. Every mode is
    /// bit-identical; see [`SpanMode`].
    pub span: SpanMode,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        Self::sequential()
    }
}

impl ExecutionConfig {
    /// Single-threaded execution with the default (GPU-sequential) model.
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            model: ExecutionModel::default(),
            simd: SimdMode::default(),
            span: SpanMode::default(),
        }
    }

    /// Parallel execution over the given number of worker threads
    /// (clamped to at least one).
    pub fn parallel(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            model: ExecutionModel::default(),
            simd: SimdMode::default(),
            span: SpanMode::default(),
        }
    }

    /// Starts a builder from the sequential default configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use splat_core::{ExecutionConfig, ExecutionModel};
    ///
    /// let exec = ExecutionConfig::builder()
    ///     .threads(4)
    ///     .model(ExecutionModel::AcceleratorOverlapped)
    ///     .build();
    /// assert_eq!(exec.threads, 4);
    /// ```
    pub fn builder() -> ExecutionConfigBuilder {
        ExecutionConfigBuilder {
            config: Self::sequential(),
        }
    }
}

/// Builder for [`ExecutionConfig`] (see [`ExecutionConfig::builder`]).
#[derive(Debug, Clone, Copy)]
pub struct ExecutionConfigBuilder {
    config: ExecutionConfig,
}

impl ExecutionConfigBuilder {
    /// Sets the worker thread count (clamped to at least one).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads.max(1);
        self
    }

    /// Sets the scheduling model for hideable side work.
    pub fn model(mut self, model: ExecutionModel) -> Self {
        self.config.model = model;
        self
    }

    /// Sets the SIMD lane-width mode of the chunked kernels.
    pub fn simd(mut self, simd: SimdMode) -> Self {
        self.config.simd = simd;
        self
    }

    /// Sets the pixel coverage strategy of the blending loop.
    pub fn span(mut self, span: SpanMode) -> Self {
        self.config.span = span;
        self
    }

    /// Finishes the builder. Infallible: every field is clamped to its
    /// domain as it is set.
    pub fn build(self) -> ExecutionConfig {
        self.config
    }
}

/// Implemented by every pipeline configuration that embeds an
/// [`ExecutionConfig`]. The provided builders are the single
/// implementation of the `with_threads` / `with_execution` knobs that the
/// per-pipeline configurations used to duplicate.
pub trait HasExecution: Sized {
    /// The embedded execution configuration.
    fn execution(&self) -> &ExecutionConfig;

    /// Mutable access for the provided builders.
    fn execution_mut(&mut self) -> &mut ExecutionConfig;

    /// Returns a copy with the worker thread count replaced (clamped to at
    /// least one).
    fn with_threads(mut self, threads: usize) -> Self {
        self.execution_mut().threads = threads.max(1);
        self
    }

    /// Returns a copy with the execution model replaced.
    fn with_execution(mut self, model: ExecutionModel) -> Self {
        self.execution_mut().model = model;
        self
    }

    /// Shorthand for selecting the accelerator's overlapped schedule.
    fn overlapped(self) -> Self {
        self.with_execution(ExecutionModel::AcceleratorOverlapped)
    }

    /// Returns a copy with the SIMD lane-width mode replaced.
    fn with_simd(mut self, simd: SimdMode) -> Self {
        self.execution_mut().simd = simd;
        self
    }

    /// Returns a copy with the pixel coverage strategy replaced.
    fn with_span(mut self, span: SpanMode) -> Self {
        self.execution_mut().span = span;
        self
    }

    /// Shorthand for the configured worker thread count.
    fn threads(&self) -> usize {
        self.execution().threads
    }

    /// Shorthand for the configured SIMD mode.
    fn simd(&self) -> SimdMode {
        self.execution().simd
    }

    /// Shorthand for the configured span mode.
    fn span(&self) -> SpanMode {
        self.execution().span
    }
}

impl HasExecution for ExecutionConfig {
    fn execution(&self) -> &ExecutionConfig {
        self
    }

    fn execution_mut(&mut self) -> &mut ExecutionConfig {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential_gpu() {
        let exec = ExecutionConfig::default();
        assert_eq!(exec.threads, 1);
        assert_eq!(exec.model, ExecutionModel::GpuSequential);
    }

    #[test]
    fn parallel_clamps_to_one_thread() {
        assert_eq!(ExecutionConfig::parallel(0).threads, 1);
        assert_eq!(ExecutionConfig::parallel(8).threads, 8);
    }

    #[test]
    fn with_threads_is_the_single_knob() {
        let exec = ExecutionConfig::sequential().with_threads(4);
        assert_eq!(exec.threads, 4);
        assert_eq!(ExecutionConfig::sequential().with_threads(0).threads, 1);
    }

    #[test]
    fn builder_clamps_and_sets_every_knob() {
        let exec = ExecutionConfig::builder()
            .threads(0)
            .model(ExecutionModel::AcceleratorOverlapped)
            .simd(SimdMode::Scalar)
            .build();
        assert_eq!(exec.threads, 1);
        assert_eq!(exec.model, ExecutionModel::AcceleratorOverlapped);
        assert_eq!(exec.simd, SimdMode::Scalar);
        assert_eq!(
            ExecutionConfig::builder().build(),
            ExecutionConfig::default()
        );
    }

    #[test]
    fn simd_modes_expose_lane_widths_and_labels() {
        assert_eq!(SimdMode::default(), SimdMode::Wide8);
        assert_eq!(
            SimdMode::ALL.map(SimdMode::lanes),
            [1, 8],
            "lane widths are pinned"
        );
        assert_eq!(SimdMode::ALL.map(SimdMode::label), ["scalar", "wide8"]);
        let exec = ExecutionConfig::sequential().with_simd(SimdMode::Scalar);
        assert_eq!(exec.simd(), SimdMode::Scalar);
        assert_eq!(ExecutionConfig::default().simd, SimdMode::Wide8);
    }

    #[test]
    fn span_modes_expose_labels_and_the_builder_knob() {
        assert_eq!(SpanMode::default(), SpanMode::Full);
        assert_eq!(SpanMode::ALL.map(SpanMode::label), ["full", "rows"]);
        let exec = ExecutionConfig::builder().span(SpanMode::RowSpans).build();
        assert_eq!(exec.span, SpanMode::RowSpans);
        let exec = ExecutionConfig::sequential().with_span(SpanMode::RowSpans);
        assert_eq!(exec.span(), SpanMode::RowSpans);
        assert_eq!(ExecutionConfig::default().span, SpanMode::Full);
    }

    #[test]
    fn with_execution_replaces_the_model() {
        let exec =
            ExecutionConfig::sequential().with_execution(ExecutionModel::AcceleratorOverlapped);
        assert_eq!(exec.model, ExecutionModel::AcceleratorOverlapped);
    }
}
