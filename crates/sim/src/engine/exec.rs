//! The run phase: filter-stationary batched row-pass execution of a
//! compiled [`Engine`].
//!
//! Every kernel here reads only the compiled tables in
//! [`ir`](super::ir) and mutates only a caller-owned
//! [`Scratch`](super::Scratch) arena. The loop order is
//! **filter-stationary** (DESIGN §5.13): each stage pads the whole
//! batch once, then every quantized filter row is loaded once and swept
//! across all images of the batch before the next row is touched —
//! instead of re-streaming the full row table per image.
//!
//! Bit-identity discipline: each accumulated term is a complete
//! `j`-summed correlation; window parts combine first-copied-then-added
//! in `ky` order, via the shared `_acc` kernels in [`crate::ppsr`] and
//! the [`RowRing`](crate::errr::RowRing) schedule. The batched sweep
//! only reorders work **across** images, never within one image, so
//! every image sees the exact saturating-addition order a sequential
//! single-image run performs — `tests/batched_parity.rs` pins this.
//!
//! Counters are data-independent: a unit's charges depend only on the
//! compiled geometry and reuse configuration, never on activation
//! values. Each partition therefore charges one representative image
//! into a `charges` accumulator and replicates it into every image of
//! the partition via [`Counters::merge`] (u64 additions — exact and
//! order-independent), which is both the counter-side hoisting win and
//! trivially bit-identical to per-image charging.

use super::ir::{Geo, StageIr, UnitIr};
use super::kernels::RowKernel;
use super::plan::charge_dense_unit_image;
use super::scratch::{return_ring, shape_streams, take_ring, ArenaPeak, KernelBufs, Scratch};
use super::sparse::sparse_unit_image;
use super::Engine;
use crate::batch::chunk_lengths;
use crate::counters::Counters;
use crate::functional::FunctionalOutput;
use crate::network::NetworkOutput;
use crate::ppsr::{
    conventional_row_sweep_acc_with, dcnn_row_pass_acc_with, scnn_row_pass_acc_with,
};
use crate::SimError;
use std::time::Instant;
use tfe_telemetry::{LayerSample, StageKind};
use tfe_tensor::fixed::{Accum, Fx16};
use tfe_tensor::tensor::Tensor4;
use tfe_transfer::analysis::ReuseConfig;
use tfe_transfer::mode::ExecMode;
use tfe_transfer::scnn::ORBIT;

/// Result of [`Engine::run_batched`]: the batch's activations plus both
/// per-image and merged counter views, so consumers that split a packed
/// micro-batch back into per-request responses (the `tfe-serve`
/// executors, [`crate::batch::run_engine_batch`]) keep exact per-request
/// accounting without re-running anything.
#[derive(Debug, Clone)]
pub struct BatchedRun {
    /// The `[B, C, H, W]` output activations, bit-identical per image to
    /// `B` sequential [`Engine::run`] calls.
    pub activations: Tensor4<Fx16>,
    /// Per-image counters, in batch order — each entry bit-identical to
    /// the counters a sequential single-image run reports.
    pub per_image: Vec<Counters>,
    /// All per-image counters merged in batch order.
    pub counters: Counters,
}

/// One partition of a stage's convolution work: a contiguous image range
/// × a contiguous unit range, owning the matching contiguous slice of
/// the stage's output accumulator planes.
///
/// The partitioner emits either full-unit batch chunks (`plane0..plane1`
/// = `0..M`) or, when the batch is smaller than the worker budget,
/// single-image unit groups whose plane ranges tile `0..M` (the
/// [`UnitIr::plane_range`] invariant) — in both cases the parts tile the
/// `[B × M × E × F]` output exactly, in ascending offset order.
#[derive(Debug, Clone, Copy)]
struct Part {
    b0: usize,
    b1: usize,
    u0: usize,
    u1: usize,
    plane0: usize,
    plane1: usize,
}

impl Part {
    fn images(self) -> usize {
        self.b1 - self.b0
    }

    fn planes(self) -> usize {
        self.plane1 - self.plane0
    }

    fn start(self, m: usize, plane_len: usize) -> usize {
        (self.b0 * m + self.plane0) * plane_len
    }

    fn len(self, m: usize, plane_len: usize) -> usize {
        if self.planes() == m {
            self.images() * m * plane_len
        } else {
            self.planes() * plane_len
        }
    }
}

/// Shared read-only context every partition of one stage sees.
#[derive(Clone, Copy)]
struct PartCtx<'a> {
    stage: &'a StageIr,
    geo: Geo,
    /// The whole run's batch size (padded-row stride for the
    /// interleaved dense layout — parts see all images' rows).
    batch: usize,
    /// Whether the stage's conservative bound proved every kernel
    /// intermediate stays inside `i32` — gates the wrapping
    /// (vectorizer-friendly) kernel fast path for dense and sparse
    /// sweeps.
    saturation_free: bool,
    reuse: ReuseConfig,
    sources: &'a [(usize, usize, bool); ORBIT],
    /// The whole batch's padded input planes. Dense stages interleave
    /// by row (`[N × PH × (B·PW)]`) so one contiguous correlation spans
    /// the batch; DCNN/SCNN stages stay image-major
    /// (`[B × N × PH × PW]`) for their per-image ring schedules.
    padded: &'a [Fx16],
}

impl Engine {
    /// Executes the network on a `[batch, N, H, W]` input using
    /// `scratch` for every intermediate buffer.
    ///
    /// After one warm-up request of each geometry the call performs no
    /// heap allocation in the datapath (only the returned output tensor
    /// is freshly allocated) and never touches `f32` weights.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OperandMismatch`] when the input (or a
    /// stage's activations) disagrees with the next stage's geometry.
    pub fn run(
        &self,
        input: &Tensor4<Fx16>,
        scratch: &mut Scratch,
    ) -> Result<NetworkOutput, SimError> {
        let activations = self.run_inner(input, scratch, 1)?;
        let counters = total_counters(&scratch.image_counters);
        Ok(NetworkOutput {
            activations,
            counters,
        })
    }

    /// [`Engine::run`] with per-image counters and an intra-run worker
    /// budget: the batch's convolution work is partitioned into at most
    /// `workers` (batch-chunk × unit-group) parts executed on scoped
    /// threads.
    ///
    /// `workers` is taken literally (clamped to the work available and
    /// to at least 1) — callers decide the budget, e.g. from their
    /// ambient thread pool, and should pass 1 for runs too small to
    /// amortize a thread spawn. Activations and per-image counters are
    /// bit-identical at every worker count (`tests/batched_parity.rs`).
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::run`].
    pub fn run_batched(
        &self,
        input: &Tensor4<Fx16>,
        scratch: &mut Scratch,
        workers: usize,
    ) -> Result<BatchedRun, SimError> {
        let activations = self.run_inner(input, scratch, workers)?;
        let per_image = scratch.image_counters.clone();
        let counters = total_counters(&per_image);
        Ok(BatchedRun {
            activations,
            per_image,
            counters,
        })
    }

    /// The shared run loop: executes every stage, leaves per-image
    /// counters in `scratch.image_counters`, and retires the run's
    /// arena peak into the high-water shrink window.
    fn run_inner(
        &self,
        input: &Tensor4<Fx16>,
        scratch: &mut Scratch,
        workers: usize,
    ) -> Result<Tensor4<Fx16>, SimError> {
        let [batch, ic, ih, iw] = input.dims();
        scratch.image_counters.clear();
        scratch.image_counters.resize(batch, Counters::new());
        let mut cur = std::mem::take(&mut scratch.stage_in);
        let mut next = std::mem::take(&mut scratch.stage_next);
        cur.clear();
        cur.extend_from_slice(input.as_slice());
        let mut dims = (ic, ih, iw);
        let mut status = Ok(());
        let mut peak = ArenaPeak::default();
        // One branch decides whether instrumentation exists at all; the
        // disabled path never touches the clock. Sampling reads counter
        // *snapshots* around each stage — the accumulation itself is
        // untouched, so activations and totals stay bit-identical to
        // the uninstrumented run. One sample covers the whole batch
        // (`images` carries the batch size; counters are the exact
        // stage delta summed over the batch).
        let telemetry = self.sink.is_enabled();
        for (layer, stage) in self.stages.iter().enumerate() {
            let before = if telemetry {
                Some((Instant::now(), total_counters(&scratch.image_counters)))
            } else {
                None
            };
            match self.run_stage(stage, batch, dims, &mut cur, &mut next, scratch, workers) {
                Ok(out_dims) => {
                    dims = out_dims;
                    peak = peak.max(ArenaPeak {
                        padded: scratch.padded.len(),
                        out: scratch.out.len(),
                        stage: cur.len().max(next.len()),
                        parts: scratch.bufs.parts.len(),
                    });
                    if let Some((start, base)) = before {
                        self.sink.record(&LayerSample {
                            layer: layer as u32,
                            stage: StageKind::Full,
                            wall_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                            images: batch as u64,
                            counters: total_counters(&scratch.image_counters) - base,
                        });
                    }
                }
                Err(e) => {
                    status = Err(e);
                    break;
                }
            }
        }
        let result = status.map(|()| {
            let (c, h, w) = dims;
            Tensor4::from_fn([batch, c, h, w], |[b, ci, y, x]| {
                cur[((b * c + ci) * h + y) * w + x]
            })
        });
        debug_assert_eq!(
            scratch.run_quantized_rows, 0,
            "the run phase must never quantize filter rows; all quantization happens in compile()"
        );
        scratch.stage_in = cur;
        scratch.stage_next = next;
        if result.is_ok() {
            scratch.retire_run(peak);
        }
        result
    }

    /// One full stage: convolution into the accumulator planes, then the
    /// output memory system into `next`, then the stage swap.
    #[allow(clippy::too_many_arguments)]
    fn run_stage(
        &self,
        stage: &StageIr,
        batch: usize,
        dims: (usize, usize, usize),
        cur: &mut Vec<Fx16>,
        next: &mut Vec<Fx16>,
        scratch: &mut Scratch,
        workers: usize,
    ) -> Result<(usize, usize, usize), SimError> {
        let geo = self.conv_stage(stage, batch, dims, cur, scratch, workers)?;
        let out_dims = Self::output_stage(stage, &geo, batch, next, scratch);
        std::mem::swap(cur, next);
        Ok(out_dims)
    }

    /// The convolution portion of one stage: validates the input
    /// geometry, pads the whole batch once, then fills `scratch.out`
    /// with the raw `[batch × M × E × F]` accumulator planes (no bias,
    /// no activation, no pooling) — partitioned across up to `workers`
    /// scoped threads.
    fn conv_stage(
        &self,
        stage: &StageIr,
        batch: usize,
        (cc, ch, cw): (usize, usize, usize),
        cur: &[Fx16],
        scratch: &mut Scratch,
        workers: usize,
    ) -> Result<Geo, SimError> {
        let shape = &stage.shape;
        for (what, expected, actual) in [
            ("input channels", shape.n(), cc),
            ("input height", shape.h(), ch),
            ("input width", shape.w(), cw),
        ] {
            if expected != actual {
                return Err(SimError::OperandMismatch {
                    what,
                    expected,
                    actual,
                });
            }
        }
        let geo = Geo::of(shape);
        let plane_len = geo.e * geo.f;
        let Scratch {
            padded,
            out,
            bufs,
            bufs_pool,
            image_counters,
            ..
        } = scratch;
        // Stage-level charge, outside the part fan-out: under unit-group
        // partitioning several parts cover the same image, so per-part
        // charging would double-count the analytic MAC total.
        for image in image_counters.iter_mut() {
            image.dense_macs += shape.macs();
        }
        out.clear();
        out.resize(batch * geo.m * plane_len, Accum::ZERO);
        let sparse = stage.plan.mode() == ExecMode::Sparse;
        // Stages are scheme-homogeneous (one TransferredLayer each), so
        // the padded layout is a per-stage choice: dense stages take the
        // row-interleaved layout (one contiguous sweep spans the batch),
        // DCNN/SCNN stages — and the per-image sparse executor — keep
        // image-major planes.
        let interleaved = matches!(stage.units.first(), Some(UnitIr::Dense { .. })) && !sparse;
        fill_padded_batch(padded, cur, batch, &geo, interleaved);
        let ctx = PartCtx {
            stage,
            geo,
            batch,
            saturation_free: (interleaved || sparse) && saturation_free(stage, &geo, padded),
            reuse: self.reuse,
            sources: &self.scnn_sources,
            padded,
        };
        let parts = partition(batch, &stage.units, geo.m, workers);
        if parts.len() == 1 {
            // The common serve path (ambient budget 1): no thread spawn,
            // no extra buffer checkout — straight through on the
            // caller's thread with the warm primary buffers.
            let mut charges = Counters::new();
            run_part(ctx, parts[0], out, bufs, &mut charges);
            for image in image_counters.iter_mut() {
                image.merge(&charges);
            }
            return Ok(geo);
        }
        // Carve each part's disjoint, contiguous output slice. Parts
        // tile the output in ascending offset order (the plane_range
        // invariant), so successive split_at_mut covers it exactly.
        let mut slices = Vec::with_capacity(parts.len());
        let mut rest: &mut [Accum] = out;
        let mut cursor = 0usize;
        for part in &parts {
            debug_assert_eq!(
                part.start(geo.m, plane_len),
                cursor,
                "parts must tile the output contiguously"
            );
            let len = part.len(geo.m, plane_len);
            let (head, tail) = rest.split_at_mut(len);
            slices.push(head);
            rest = tail;
            cursor += len;
        }
        debug_assert!(rest.is_empty(), "parts must cover the whole output");
        let mut extra_bufs: Vec<KernelBufs> = (1..parts.len())
            .map(|_| bufs_pool.pop().unwrap_or_default())
            .collect();
        let charges: Vec<Counters> = std::thread::scope(|scope| {
            let mut slice_iter = slices.into_iter();
            let first = slice_iter.next().expect("at least one part");
            let handles: Vec<_> = parts[1..]
                .iter()
                .zip(slice_iter)
                .zip(extra_bufs.iter_mut())
                .map(|((&part, slice), part_bufs)| {
                    scope.spawn(move || {
                        let mut charges = Counters::new();
                        run_part(ctx, part, slice, part_bufs, &mut charges);
                        charges
                    })
                })
                .collect();
            // Part 0 runs inline on the caller's thread with the warm
            // primary buffers; join order is the deterministic part
            // order (merge order doesn't matter for the u64 counters,
            // but determinism keeps the whole path reproducible).
            let mut all = Vec::with_capacity(parts.len());
            let mut charges0 = Counters::new();
            run_part(ctx, parts[0], first, bufs, &mut charges0);
            all.push(charges0);
            for handle in handles {
                all.push(handle.join().expect("conv worker panicked"));
            }
            all
        });
        for (part, part_charges) in parts.iter().zip(&charges) {
            for per_image in &mut image_counters[part.b0..part.b1] {
                per_image.merge(part_charges);
            }
        }
        bufs_pool.append(&mut extra_bufs);
        Ok(geo)
    }

    /// The output portion of one stage: drives every accumulator plane
    /// in `scratch.out` through bias fold → ReLU → pooling, assembling
    /// the next stage's activations in `next` and charging each image's
    /// own counters. Returns the output `(channels, rows, cols)`.
    fn output_stage(
        stage: &StageIr,
        geo: &Geo,
        batch: usize,
        next: &mut Vec<Fx16>,
        scratch: &mut Scratch,
    ) -> (usize, usize, usize) {
        let plane_len = geo.e * geo.f;
        let (or, oc) = match stage.output.pool {
            None => (geo.e, geo.f),
            Some(p) => (geo.e / p, geo.f / p),
        };
        next.clear();
        let Scratch {
            out,
            act_row,
            pool_row,
            pool_staged,
            image_counters,
            ..
        } = scratch;
        for b in 0..batch {
            let counters = &mut image_counters[b];
            for c in 0..geo.m {
                let plane = &out[(b * geo.m + c) * plane_len..][..plane_len];
                process_channel(
                    plane,
                    geo,
                    stage.bias[c],
                    stage.output,
                    act_row,
                    pool_row,
                    pool_staged,
                    next,
                    counters,
                );
            }
        }
        (geo.m, or, oc)
    }

    /// Runs the convolution of a single-stage engine and returns the raw
    /// accumulator planes — the layer-level reference contract of
    /// [`crate::functional::run_layer`], which owns validation and the
    /// output stage.
    pub(crate) fn run_conv_only(
        &self,
        input: &Tensor4<Fx16>,
        scratch: &mut Scratch,
    ) -> Result<FunctionalOutput, SimError> {
        debug_assert_eq!(
            self.stages.len(),
            1,
            "run_conv_only executes exactly one compiled stage"
        );
        let [batch, ic, ih, iw] = input.dims();
        scratch.image_counters.clear();
        scratch.image_counters.resize(batch, Counters::new());
        let stage = &self.stages[0];
        let start = if self.sink.is_enabled() {
            Some(Instant::now())
        } else {
            None
        };
        let geo = self.conv_stage(stage, batch, (ic, ih, iw), input.as_slice(), scratch, 1)?;
        let counters = total_counters(&scratch.image_counters);
        if let Some(start) = start {
            self.sink.record(&LayerSample {
                layer: 0,
                stage: StageKind::ConvOnly,
                wall_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                images: batch as u64,
                counters,
            });
        }
        let out = &scratch.out;
        let output = Tensor4::from_fn([batch, geo.m, geo.e, geo.f], |[b, c, y, x]| {
            out[((b * geo.m + c) * geo.e + y) * geo.f + x]
        });
        debug_assert_eq!(
            scratch.run_quantized_rows, 0,
            "the run phase must never quantize filter rows; all quantization happens in compile()"
        );
        let peak = ArenaPeak {
            padded: scratch.padded.len(),
            out: scratch.out.len(),
            stage: 0,
            parts: scratch.bufs.parts.len(),
        };
        scratch.retire_run(peak);
        Ok(FunctionalOutput { output, counters })
    }
}

/// The conservative saturation-free gate for one dense stage: every
/// parts-buffer slot accumulates `N/groups` passes, each a `K`-term
/// product sum, so **all** kernel intermediates (j-prefix sums and
/// running accumulator values alike) are bounded in magnitude by
/// `(N/groups) · K · max|w| · max|input|`. When that bound stays strictly inside
/// `i32`, no saturating addition can ever clamp, wrapping arithmetic is
/// exact, and exact integer sums are associative — the wrapping kernel
/// fast path is bit-identical to the saturating chain.
///
/// The weight factor is folded at compile time ([`StageIr::w_abs_max`]);
/// the input factor is one max-abs scan of the stage's padded batch,
/// amortized over the `M × E` row passes that read it.
fn saturation_free(stage: &StageIr, geo: &Geo, padded: &[Fx16]) -> bool {
    let in_abs = padded
        .iter()
        .map(|v| i64::from(v.to_bits()).abs())
        .max()
        .unwrap_or(0);
    // Each filter sums over its own channel band (N/groups channels) of
    // K live taps per row — stuffed dilation zeros contribute nothing,
    // so the logical-tap bound stays valid for every geometry.
    (geo.cpg as i64)
        .saturating_mul(geo.k as i64)
        .saturating_mul(stage.w_abs_max)
        .saturating_mul(in_abs)
        < i64::from(i32::MAX)
}

/// Merges a run's per-image counters in batch order.
fn total_counters(per_image: &[Counters]) -> Counters {
    let mut total = Counters::new();
    for image in per_image {
        total.merge(image);
    }
    total
}

/// Divides one stage's convolution work into at most `workers` parts.
///
/// `batch ≥ workers`: contiguous full-unit batch chunks (larger chunks
/// first, matching [`chunk_lengths`]). `batch < workers`: the worker
/// budget is shared across images and each image's unit list is split
/// into that many contiguous unit groups, so a lone large request still
/// fans out. Parts are emitted in ascending output-offset order.
fn partition(batch: usize, units: &[UnitIr], m: usize, workers: usize) -> Vec<Part> {
    let full = Part {
        b0: 0,
        b1: batch,
        u0: 0,
        u1: units.len(),
        plane0: 0,
        plane1: m,
    };
    if workers <= 1 || batch == 0 || units.is_empty() {
        return vec![full];
    }
    let mut parts = Vec::new();
    if batch >= workers {
        let mut b0 = 0;
        for len in chunk_lengths(batch, workers) {
            parts.push(Part {
                b0,
                b1: b0 + len,
                u0: 0,
                u1: units.len(),
                plane0: 0,
                plane1: m,
            });
            b0 += len;
        }
    } else {
        for (b, share) in chunk_lengths(workers, batch).into_iter().enumerate() {
            let mut u0 = 0;
            for ulen in chunk_lengths(units.len(), share) {
                let u1 = u0 + ulen;
                parts.push(Part {
                    b0: b,
                    b1: b + 1,
                    u0,
                    u1,
                    plane0: units[u0].plane_range(m).start,
                    plane1: units[u1 - 1].plane_range(m).end,
                });
                u0 = u1;
            }
        }
    }
    parts
}

/// Executes one partition: its unit range over its image range, into its
/// disjoint output slice (`[images × planes × plane_len]`, planes
/// rebased to the part's `plane0`).
///
/// Charges accumulate for **one** representative image; the caller
/// replicates them into every image of the part (charges are
/// data-independent, so the replica is exactly what per-image charging
/// would produce).
fn run_part(
    ctx: PartCtx<'_>,
    part: Part,
    out_part: &mut [Accum],
    bufs: &mut KernelBufs,
    charges: &mut Counters,
) {
    let geo = &ctx.geo;
    let plane_len = geo.e * geo.f;
    let img_stride = geo.n * geo.ph * geo.pw;
    let slab = part.planes() * plane_len;
    for (ui, unit) in ctx.stage.units[part.u0..part.u1].iter().enumerate() {
        match unit {
            UnitIr::Dense { m, base } => {
                if part.images() > 0 && ctx.stage.plan.mode() == ExecMode::Sparse {
                    // The sparse executor runs per image over the
                    // image-major layout; charges replay the dense
                    // model once for the representative image (the
                    // caller replicates per image, exactly as the
                    // dense sweep's hoisted charges are).
                    charge_dense_unit_image(geo, charges);
                    let table = &ctx.stage.plan.sparse[part.u0 + ui];
                    for bi in 0..part.images() {
                        let image = &ctx.padded[(part.b0 + bi) * img_stride..][..img_stride];
                        let out_img = &mut out_part[bi * slab..][..slab];
                        sparse_unit_image(
                            table,
                            image,
                            geo,
                            *m,
                            *m - part.plane0,
                            ctx.saturation_free,
                            out_img,
                            bufs,
                        );
                    }
                    continue;
                }
                dense_unit_sweep(
                    ctx.stage.kernel,
                    &ctx.stage.rows[*base..],
                    ctx.padded,
                    geo,
                    ctx.batch,
                    ctx.saturation_free,
                    part.b0,
                    part.images(),
                    *m,
                    *m - part.plane0,
                    part.planes(),
                    out_part,
                    bufs,
                    charges,
                )
            }
            UnitIr::Dcnn {
                g,
                per_axis,
                z,
                k,
                base,
            } => {
                for bi in 0..part.images() {
                    let image = &ctx.padded[(part.b0 + bi) * img_stride..][..img_stride];
                    let out_img = &mut out_part[bi * slab..][..slab];
                    let mut scrap = Counters::new();
                    let counters = if bi == 0 { &mut *charges } else { &mut scrap };
                    dcnn_unit(
                        ctx.stage.kernel,
                        &ctx.stage.rows[*base..],
                        image,
                        geo,
                        (*g, *per_axis, *z, *k),
                        ctx.reuse,
                        part.plane0,
                        out_img,
                        bufs,
                        counters,
                    );
                }
            }
            UnitIr::Scnn {
                g,
                base,
                emitted,
                computed,
            } => {
                for bi in 0..part.images() {
                    let image = &ctx.padded[(part.b0 + bi) * img_stride..][..img_stride];
                    let out_img = &mut out_part[bi * slab..][..slab];
                    let mut scrap = Counters::new();
                    let counters = if bi == 0 { &mut *charges } else { &mut scrap };
                    scnn_unit(
                        ctx.stage.kernel,
                        &ctx.stage.rows[*base..],
                        image,
                        geo,
                        (*g, *emitted),
                        computed,
                        ctx.sources,
                        ctx.reuse,
                        part.plane0,
                        out_img,
                        bufs,
                        counters,
                    );
                }
            }
        }
    }
}

/// Copies every image of `cur` into the flat zero-padded batch plane
/// buffer — the whole batch pads once per stage so the filter-stationary
/// sweep can stride across images.
///
/// Two layouts, chosen per stage:
///
/// * `interleaved` (dense stages): `[N × PH × (B·PW)]` — each padded
///   channel row stores all images' rows back to back, so one contiguous
///   correlation of span `(B−1)·PW + full_w` covers the whole batch.
/// * image-major (DCNN/SCNN stages): `[B × N × PH × PW]` — each image's
///   planes are contiguous, matching the per-image ring schedules.
fn fill_padded_batch(
    padded: &mut Vec<Fx16>,
    cur: &[Fx16],
    batch: usize,
    geo: &Geo,
    interleaved: bool,
) {
    let Geo {
        n,
        h,
        w,
        pad,
        ph,
        pw,
        ..
    } = *geo;
    padded.clear();
    padded.resize(batch * n * ph * pw, Fx16::ZERO);
    let bw = batch * pw;
    for b in 0..batch {
        for c in 0..n {
            for y in 0..h {
                let src = &cur[((b * n + c) * h + y) * w..][..w];
                let dst = if interleaved {
                    (c * ph + y + pad) * bw + b * pw + pad
                } else {
                    (b * n + c) * ph * pw + (y + pad) * pw + pad
                };
                padded[dst..dst + w].copy_from_slice(src);
            }
        }
    }
}

/// Adds a later window part into the running window sum, with the same
/// alignment check as [`crate::errr::combine_rows`].
pub(super) fn window_add(window: &mut [Accum], part: &[Accum]) {
    assert_eq!(part.len(), window.len(), "window parts must align");
    for (acc, &p) in window.iter_mut().zip(part.iter()) {
        *acc += p;
    }
}

/// Subsamples the combined window into output row `oy` of plane `m`
/// (already rebased to the owning part's plane range).
pub(super) fn emit_row(out_img: &mut [Accum], window: &[Accum], m: usize, oy: usize, geo: &Geo) {
    let orow = &mut out_img[(m * geo.e + oy) * geo.f..][..geo.f];
    for (ox, slot) in orow.iter_mut().enumerate() {
        *slot = window[ox * geo.s];
    }
}

/// One dense filter's plane for every image of the part at once: per
/// output row, each of the `K × N/groups` quantized filter rows is
/// loaded (dispatched + widened) **once** and correlated over one
/// contiguous span of the row-interleaved padded buffer covering the
/// whole image range — the filter-stationary inner loop.
///
/// Geometry generality: the filter reads only its own channel band
/// (`cpg` padded channels starting at `(filter/mpg)·cpg`), vertical taps
/// sit at `oy·s + ky·d`, and rows are stored zero-stuffed at span
/// `KW = d·(K−1)+1` — so grouped, depth-wise, and dilated layers all run
/// this same sweep.
///
/// The span is `(images−1)·PW + full_w`: valid position `x` of image
/// `bi` lives at offset `bi·PW + x` and reads exactly that image's
/// samples in ascending `j` order, so per-image values and saturating
/// addition order are identical to a single-image pass. The `KW−1`
/// positions between consecutive images' lanes mix two images' samples —
/// junk the window combine never reads (it slices `[bi·PW .. bi·PW +
/// full_w]` per image). The junk overhead is `(KW−1)/PW` extra positions
/// per image; in exchange the whole batch runs through the chunked
/// vectorizable kernel path instead of `B` short scalar tails.
///
/// The parts buffer is laid out `[K × row_span]` so one `ky`'s sweep is
/// one contiguous accumulator run.
#[allow(clippy::too_many_arguments)]
fn dense_unit_sweep(
    kernel: RowKernel,
    rows: &[Fx16],
    padded: &[Fx16],
    geo: &Geo,
    batch: usize,
    saturation_free: bool,
    b0: usize,
    images: usize,
    filter: usize,
    plane: usize,
    slab_planes: usize,
    out_part: &mut [Accum],
    bufs: &mut KernelBufs,
    charges: &mut Counters,
) {
    let Geo {
        e,
        f,
        k,
        s,
        ph,
        pw,
        d,
        cpg,
        mpg,
        kw,
        ..
    } = *geo;
    if images == 0 {
        return;
    }
    let full_w = pw - kw + 1;
    let bw = batch * pw;
    let row_span = (images - 1) * pw + full_w;
    let plane_len = e * f;
    let slab = slab_planes * plane_len;
    let c0 = (filter / mpg) * cpg;
    let KernelBufs { window, parts, .. } = bufs;
    for oy in 0..e {
        parts.clear();
        parts.resize(k * row_span, Accum::ZERO);
        for ky in 0..k {
            let acc = &mut parts[ky * row_span..][..row_span];
            for ci in 0..cpg {
                let w_row = &rows[(ci * k + ky) * kw..][..kw];
                // Input span needed is row_span + KW − 1 = images·PW,
                // which ends exactly at the next image range (or the
                // row's end) — always in bounds of the interleaved row.
                let in_base = ((c0 + ci) * ph + oy * s + ky * d) * bw + b0 * pw;
                conventional_row_sweep_acc_with(
                    kernel,
                    w_row,
                    k,
                    images,
                    &padded[in_base..],
                    pw,
                    acc,
                    saturation_free,
                    charges,
                );
            }
        }
        for bi in 0..images {
            window.clear();
            window.extend_from_slice(&parts[bi * pw..][..full_w]);
            for ky in 1..k {
                window_add(window, &parts[ky * row_span + bi * pw..][..full_w]);
            }
            // The adder trees combine K window parts only at the geo.f
            // positions emit_row consumes — the analytic model
            // (NetworkPerf: out_elems · (K−1)) and these counters must
            // agree, pinned by tests/engine_counters.rs. Charged once
            // per part (replicated per image by the caller).
            if bi == 0 {
                charges.adds += (k.saturating_sub(1) * f) as u64;
            }
            emit_row(&mut out_part[bi * slab..][..slab], window, plane, oy, geo);
        }
    }
}

/// One DCNN meta group's planes for a single image (ERRR ring or
/// per-`dy` recomputation). `plane_base` rebases emitted planes into the
/// owning part's output slab.
#[allow(clippy::too_many_arguments)]
fn dcnn_unit(
    kernel: RowKernel,
    rows: &[Fx16],
    padded: &[Fx16],
    geo: &Geo,
    (g, per_axis, z, k): (usize, usize, usize, usize),
    reuse: ReuseConfig,
    plane_base: usize,
    out_img: &mut [Accum],
    bufs: &mut KernelBufs,
    counters: &mut Counters,
) {
    let Geo {
        n,
        m: m_count,
        e,
        s,
        ph,
        pw,
        d,
        kw,
        ..
    } = *geo;
    let zw = d * (z - 1) + 1;
    let full_w = pw - kw + 1;
    if reuse.errr {
        // At d > 1 an output row's input taps are d apart, so
        // consecutive output rows interleave their tap sets; a K-deep
        // FIFO would evict rows that later windows still need and
        // recompute every pass. Sizing the ring to the full effective
        // input span keeps each input row's pass computed exactly once.
        let capacity = if d == 1 {
            k
        } else {
            ((e - 1) * s + (k - 1) * d + 1).min(ph)
        };
        let mut ring = take_ring(&mut bufs.ring_pool, &mut bufs.streams_pool, capacity);
        for oy in 0..e {
            for ky in 0..k {
                let i = oy * s + ky * d;
                if ring.contains(i) {
                    continue;
                }
                let mut streams = bufs.streams_pool.pop().unwrap_or_default();
                shape_streams(&mut streams, z, per_axis, full_w);
                for (kr, per_dx) in streams.iter_mut().enumerate() {
                    for c in 0..n {
                        let meta_row = &rows[(c * z + kr) * zw..][..zw];
                        let in_row = &padded[(c * ph + i) * pw..][..pw];
                        dcnn_row_pass_acc_with(
                            kernel, meta_row, in_row, k, d, reuse.ppsr, per_dx, counters,
                        );
                    }
                }
                if let Some(evicted) = ring.insert_recycling(i, streams, counters) {
                    bufs.streams_pool.push(evicted);
                }
            }
            for dy in 0..per_axis {
                for dx in 0..per_axis {
                    let m = g * per_axis * per_axis + dy * per_axis + dx;
                    if m >= m_count {
                        continue;
                    }
                    let window = &mut bufs.window;
                    for ky in 0..k {
                        let part = ring
                            .read(oy * s + ky * d, dy + ky, dx, counters)
                            .expect("row still resident within the window");
                        if ky == 0 {
                            window.clear();
                            window.extend_from_slice(part);
                        } else {
                            window_add(window, part);
                        }
                    }
                    counters.adds += (k.saturating_sub(1) * geo.f) as u64;
                    emit_row(out_img, window, m - plane_base, oy, geo);
                }
            }
        }
        return_ring(&mut bufs.ring_pool, &mut bufs.streams_pool, ring);
    } else {
        for oy in 0..e {
            for dy in 0..per_axis {
                let KernelBufs {
                    window, per_row, ..
                } = bufs;
                shape_streams(per_row, k, per_axis, full_w);
                for (ky, per_dx) in per_row.iter_mut().enumerate() {
                    let kr = dy + ky;
                    let i = oy * s + ky * d;
                    for c in 0..n {
                        let meta_row = &rows[(c * z + kr) * zw..][..zw];
                        let in_row = &padded[(c * ph + i) * pw..][..pw];
                        dcnn_row_pass_acc_with(
                            kernel, meta_row, in_row, k, d, reuse.ppsr, per_dx, counters,
                        );
                    }
                }
                for dx in 0..per_axis {
                    let m = g * per_axis * per_axis + dy * per_axis + dx;
                    if m >= m_count {
                        continue;
                    }
                    for (ky, streams) in per_row.iter().enumerate() {
                        let part = streams[dx].as_slice();
                        if ky == 0 {
                            window.clear();
                            window.extend_from_slice(part);
                        } else {
                            window_add(window, part);
                        }
                    }
                    counters.adds += (k.saturating_sub(1) * geo.f) as u64;
                    emit_row(out_img, window, m - plane_base, oy, geo);
                }
            }
        }
    }
}

/// One SCNN orbit group's planes for a single image (per-source rings,
/// derived orientations read flipped/reversed streams). `plane_base`
/// rebases emitted planes into the owning part's output slab.
#[allow(clippy::too_many_arguments)]
fn scnn_unit(
    kernel: RowKernel,
    rows: &[Fx16],
    padded: &[Fx16],
    geo: &Geo,
    (g, emitted): (usize, usize),
    computed: &[usize],
    sources: &[(usize, usize, bool); ORBIT],
    reuse: ReuseConfig,
    plane_base: usize,
    out_img: &mut [Accum],
    bufs: &mut KernelBufs,
    counters: &mut Counters,
) {
    let Geo {
        n,
        e,
        k,
        s,
        ph,
        pw,
        d,
        kw,
        ..
    } = *geo;
    let full_w = pw - kw + 1;
    let variants = 1 + usize::from(reuse.ppsr);
    // Same capacity rule as the DCNN ring: at d > 1 consecutive output
    // rows interleave their d-strided tap sets, so the ring holds the
    // full effective input span to keep each row's pass computed once.
    let capacity = if d == 1 {
        k
    } else {
        ((e - 1) * s + (k - 1) * d + 1).min(ph)
    };
    {
        let KernelBufs {
            ring_table,
            ring_pool,
            streams_pool,
            ..
        } = bufs;
        ring_table.clear();
        ring_table.resize_with(ORBIT, || None);
        for &oi in computed {
            ring_table[oi] = Some(take_ring(ring_pool, streams_pool, capacity));
        }
    }
    for oy in 0..e {
        {
            let KernelBufs {
                ring_table,
                streams_pool,
                ..
            } = bufs;
            for &oi in computed {
                let ring = ring_table[oi]
                    .as_mut()
                    .expect("computed orientation has a ring");
                for tap in 0..k {
                    let i = oy * s + tap * d;
                    if ring.contains(i) {
                        continue;
                    }
                    let mut streams = streams_pool.pop().unwrap_or_default();
                    shape_streams(&mut streams, k, variants, full_w);
                    for (kr, per_kr) in streams.iter_mut().enumerate() {
                        let (fwd, rest) = per_kr
                            .split_first_mut()
                            .expect("at least the forward stream");
                        let mut rev: Option<&mut [Accum]> =
                            rest.first_mut().map(|v| v.as_mut_slice());
                        for c in 0..n {
                            let w_row = &rows[((oi * n + c) * k + kr) * kw..][..kw];
                            let in_row = &padded[(c * ph + i) * pw..][..pw];
                            scnn_row_pass_acc_with(
                                kernel,
                                w_row,
                                in_row,
                                k,
                                reuse.ppsr,
                                fwd,
                                rev.as_deref_mut(),
                                counters,
                            );
                        }
                    }
                    if let Some(evicted) = ring.insert_recycling(i, streams, counters) {
                        streams_pool.push(evicted);
                    }
                }
            }
        }
        for (local, &(src, direction, row_flip)) in sources.iter().enumerate().take(emitted) {
            let KernelBufs {
                ring_table, window, ..
            } = bufs;
            let ring = ring_table[src]
                .as_ref()
                .expect("source orientation is computed");
            for ky in 0..k {
                let kr = if row_flip { k - 1 - ky } else { ky };
                let part = ring
                    .read(oy * s + ky * d, kr, direction, counters)
                    .expect("row still resident within the window");
                if ky == 0 {
                    window.clear();
                    window.extend_from_slice(part);
                } else {
                    window_add(window, part);
                }
            }
            counters.adds += (k.saturating_sub(1) * geo.f) as u64;
            emit_row(out_img, window, g * ORBIT + local - plane_base, oy, geo);
        }
    }
    let KernelBufs {
        ring_table,
        ring_pool,
        streams_pool,
        ..
    } = bufs;
    for slot in ring_table.iter_mut() {
        if let Some(ring) = slot.take() {
            return_ring(ring_pool, streams_pool, ring);
        }
    }
}

/// Drives one ofmap channel plane through the output memory system
/// (bias fold → ReLU → row-wise pooling), appending the re-quantized
/// activations to `next` — the flat-buffer mirror of
/// [`crate::output::OutputSystem`].
#[allow(clippy::too_many_arguments)]
fn process_channel(
    plane: &[Accum],
    geo: &Geo,
    bias: Accum,
    config: crate::output::OutputConfig,
    act_row: &mut Vec<f32>,
    pool_row: &mut Vec<f32>,
    staged: &mut Vec<f32>,
    next: &mut Vec<Fx16>,
    counters: &mut Counters,
) {
    let (e, f) = (geo.e, geo.f);
    staged.clear();
    let mut staged_rows = 0usize;
    for y in 0..e {
        let row = &plane[y * f..][..f];
        act_row.clear();
        act_row.extend(row.iter().map(|&acc| {
            let v = acc + bias;
            let v = if config.relu { v.relu() } else { v };
            v.to_sample().to_f32()
        }));
        let Some(p) = config.pool else {
            next.extend(act_row.iter().map(|&v| Fx16::from_f32(v)));
            continue;
        };
        counters.sr_writes += act_row.len() as u64;
        counters.sr_reads += act_row.len() as u64;
        pool_row.clear();
        pool_row.extend(
            act_row
                .chunks_exact(p)
                .map(|window| window.iter().copied().fold(f32::NEG_INFINITY, f32::max)),
        );
        counters.psum_mem_writes += pool_row.len() as u64;
        let staged_width = pool_row.len();
        staged.extend_from_slice(pool_row);
        staged_rows += 1;
        if staged_rows == p {
            counters.psum_mem_reads += staged.len() as u64;
            for x in 0..staged_width {
                let best = (0..p)
                    .map(|r| staged[r * staged_width + x])
                    .fold(f32::NEG_INFINITY, f32::max);
                next.push(Fx16::from_f32(best));
            }
            staged.clear();
            staged_rows = 0;
        }
    }
    // compile() rejects non-divisible pool geometry, so no staged rows
    // may remain (a dropped tail would leave psum_mem_writes charged
    // without matching psum_mem_reads).
    debug_assert_eq!(
        staged_rows, 0,
        "pooling tail must be empty; Engine::compile validates e % p == 0"
    );
}
