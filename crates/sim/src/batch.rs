//! Batched multi-image evaluation of one compiled engine — the
//! "serve heavy traffic" entry point.
//!
//! [`run_engine_batch`] pushes a batch of independent input images
//! through one compiled [`Engine`], dividing the images into contiguous
//! per-worker chunks. Each chunk checks a [`Scratch`](crate::engine::Scratch)
//! arena out of a [`ScratchPool`], packs its images into one tensor and
//! runs them as a single [`Engine::run_batched`] sweep; outputs come
//! back in input order and per-image [`Counters`] merge in input order
//! via [`Counters::merge`] — so both the activation values and the
//! merged totals are **bit-identical** to a sequential loop over the
//! batch, for every thread count (`tests/parallel_parity.rs` asserts
//! this).
//!
//! [`run_batch`] is the convenience wrapper over a
//! [`FunctionalNetwork`]: it compiles (or fetches the cached) engine via
//! [`FunctionalNetwork::engine`] and delegates to [`run_engine_batch`]
//! with the network's internal scratch pool.
//!
//! Thread budget: [`BatchOptions::threads`] pins an explicit count;
//! otherwise the runner uses the ambient budget (`RAYON_NUM_THREADS` /
//! `TFE_THREADS` environment variables, defaulting to the machine's
//! available parallelism). Parallelism is across chunks of images
//! only — each chunk's images share one engine pass on one worker.

use crate::counters::Counters;
use crate::engine::{Engine, ScratchPool};
use crate::network::{FunctionalNetwork, NetworkOutput};
use crate::SimError;
use rayon::prelude::*;
use tfe_tensor::fixed::Fx16;
use tfe_tensor::tensor::Tensor4;
use tfe_transfer::analysis::ReuseConfig;

/// Knobs for a batched evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions {
    /// Worker-thread count for this batch; `None` uses the ambient
    /// budget (`RAYON_NUM_THREADS` / `TFE_THREADS`, else all cores).
    pub threads: Option<usize>,
}

impl BatchOptions {
    /// Options pinning an explicit worker-thread count.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        BatchOptions {
            threads: Some(threads),
        }
    }
}

/// Result of a batched evaluation.
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// Per-image network outputs, in input order. Each retains its own
    /// per-image counter set.
    pub outputs: Vec<NetworkOutput>,
    /// All per-image counters merged in input order.
    pub counters: Counters,
}

/// Evaluates a batch of independent `[1, N, H, W]`-shaped (or any
/// batch-dim) input images through one network plan.
///
/// This is a thin wrapper over [`run_engine_batch`]: the network's
/// cached engine for `reuse` is compiled on first use
/// ([`FunctionalNetwork::engine`]) and the batch fans out over the
/// network's internal scratch pool.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] if `options.threads` is
/// `Some(0)` — a zero-thread pool could never make progress, so the
/// request is rejected before any compilation or evaluation. Otherwise
/// propagates compile-time errors, then the first per-image
/// [`SimError`] in input order (the same error a sequential loop would
/// hit first).
pub fn run_batch(
    net: &FunctionalNetwork,
    inputs: &[Tensor4<Fx16>],
    reuse: ReuseConfig,
    options: BatchOptions,
) -> Result<BatchOutput, SimError> {
    if options.threads == Some(0) {
        return Err(SimError::InvalidConfig {
            what: "batch thread count must be at least 1 (got Some(0))",
        });
    }
    let engine = net.engine(reuse)?;
    run_engine_batch(engine, inputs, options, net.scratch_pool())
}

/// Evaluates a batch of independent input images through a compiled
/// [`Engine`] — the execution core behind [`run_batch`] and the
/// `tfe-serve` executors.
///
/// Inputs are divided into at most `worker` contiguous chunks (never
/// more chunks than inputs, so no worker receives empty work); each
/// chunk checks a [`Scratch`](crate::engine::Scratch) arena out of
/// `scratches`, **packs its inputs into one `[B, C, H, W]` tensor**,
/// and executes them as a single filter-stationary
/// [`Engine::run_batched`] sweep — each quantized filter row loads once
/// per chunk instead of once per image. Outputs come back in input
/// order, each input keeping its own per-image counters (split back out
/// of [`crate::engine::BatchedRun::per_image`]), and the merged totals
/// accumulate in input order — so results are bit-identical to a
/// sequential loop at every thread count (`tests/parallel_parity.rs`
/// and `tests/batched_parity.rs` assert this).
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for `Some(0)` threads, otherwise
/// the first per-image [`SimError`] in input order — the same contract
/// as [`run_batch`]. Stage-0 geometry is validated upfront per input
/// (channels, then height, then width — [`Engine::run`]'s order) so
/// packing can never reorder which mismatch is reported first.
pub fn run_engine_batch(
    engine: &Engine,
    inputs: &[Tensor4<Fx16>],
    options: BatchOptions,
    scratches: &ScratchPool,
) -> Result<BatchOutput, SimError> {
    let evaluate = |workers: usize| -> Result<BatchOutput, SimError> {
        if let Some(shape) = engine.stage_shape(0) {
            for input in inputs {
                let [_, c, h, w] = input.dims();
                for (what, expected, actual) in [
                    ("input channels", shape.n(), c),
                    ("input height", shape.h(), h),
                    ("input width", shape.w(), w),
                ] {
                    if expected != actual {
                        return Err(SimError::OperandMismatch {
                            what,
                            expected,
                            actual,
                        });
                    }
                }
            }
        }
        let lengths = chunk_lengths(inputs.len(), workers.max(1));
        let mut chunks = Vec::with_capacity(lengths.len());
        let mut start = 0;
        for len in lengths {
            chunks.push(&inputs[start..start + len]);
            start += len;
        }
        let per_chunk: Vec<Result<Vec<NetworkOutput>, SimError>> = chunks
            .par_iter()
            .map(|chunk| {
                let mut scratch = scratches.checkout();
                let result = run_packed_chunk(engine, chunk, &mut scratch);
                scratches.restore(scratch);
                result
            })
            .collect();
        let mut outputs = Vec::with_capacity(inputs.len());
        for chunk in per_chunk {
            outputs.extend(chunk?);
        }
        let mut counters = Counters::new();
        for output in &outputs {
            counters.merge(&output.counters);
        }
        Ok(BatchOutput { outputs, counters })
    };
    match options.threads {
        Some(0) => Err(SimError::InvalidConfig {
            what: "batch thread count must be at least 1 (got Some(0))",
        }),
        Some(threads) => rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|_| SimError::UnsupportedLayer {
                reason: "failed to build the batch thread pool",
            })?
            .install(|| evaluate(threads)),
        None => evaluate(rayon::current_num_threads()),
    }
}

/// Runs one worker's chunk of inputs as a single packed batched sweep,
/// then splits the result back into per-input [`NetworkOutput`]s.
///
/// A lone input skips the pack/split copies and runs directly. Inputs
/// whose leading dim differs are fine (each keeps its own sub-range of
/// the packed batch); differing `(C, H, W)` can only reach here through
/// a stage-less engine, where packing would misattribute rows — that
/// case falls back to sequential per-input runs.
fn run_packed_chunk(
    engine: &Engine,
    chunk: &[Tensor4<Fx16>],
    scratch: &mut crate::engine::Scratch,
) -> Result<Vec<NetworkOutput>, SimError> {
    let Some(first) = chunk.first() else {
        return Ok(Vec::new());
    };
    let [_, c, h, w] = first.dims();
    if chunk.len() == 1 {
        return engine.run(first, scratch).map(|o| vec![o]);
    }
    if chunk.iter().any(|t| {
        let [_, tc, th, tw] = t.dims();
        (tc, th, tw) != (c, h, w)
    }) {
        return chunk
            .iter()
            .map(|input| engine.run(input, scratch))
            .collect();
    }
    let lens: Vec<usize> = chunk.iter().map(|t| t.dims()[0]).collect();
    let total: usize = lens.iter().sum();
    let mut packed = Vec::with_capacity(total * c * h * w);
    for t in chunk {
        packed.extend_from_slice(t.as_slice());
    }
    let packed = Tensor4::from_vec([total, c, h, w], packed)
        .expect("packed chunk dims match the concatenated inputs");
    let run = engine.run_batched(&packed, scratch, 1)?;
    let [_, oc, oh, ow] = run.activations.dims();
    let mut outputs = Vec::with_capacity(chunk.len());
    let mut b0 = 0usize;
    for len in lens {
        let activations = Tensor4::from_fn([len, oc, oh, ow], |[b, ci, y, x]| {
            run.activations.get([b0 + b, ci, y, x])
        });
        let mut counters = Counters::new();
        for image in &run.per_image[b0..b0 + len] {
            counters.merge(image);
        }
        outputs.push(NetworkOutput {
            activations,
            counters,
        });
        b0 += len;
    }
    Ok(outputs)
}

/// Contiguous chunk sizes dividing `len` items into at most `chunks`
/// non-empty pieces: `min(chunks, len)` chunks, sizes differing by at
/// most one, larger chunks first. Shared with the intra-run partitioner
/// (`engine/exec.rs`), so batch-level and stage-level splits follow the
/// same rule.
pub(crate) fn chunk_lengths(len: usize, chunks: usize) -> Vec<usize> {
    let count = chunks.min(len);
    if count == 0 {
        return Vec::new();
    }
    let base = len / count;
    let extra = len % count;
    (0..count).map(|i| base + usize::from(i < extra)).collect()
}

/// Splits a `[B, C, H, W]` tensor into `B` single-image `[1, C, H, W]`
/// tensors, the input format [`run_batch`] fans out over.
#[must_use]
pub fn split_batch(input: &Tensor4<Fx16>) -> Vec<Tensor4<Fx16>> {
    let [batch, c, h, w] = input.dims();
    (0..batch)
        .map(|b| Tensor4::from_fn([1, c, h, w], |[_, ci, y, x]| input.get([b, ci, y, x])))
        .collect()
}

/// Splits a `[B, C, H, W]` tensor into at most `chunks` contiguous
/// multi-image pieces for per-worker evaluation.
///
/// When `chunks > B` (more threads than images) this returns `B`
/// singleton chunks rather than padding with empty `[0, C, H, W]`
/// tensors — every returned chunk is non-empty, and concatenating the
/// chunks in order reproduces the input batch exactly.
#[must_use]
pub fn split_batch_chunks(input: &Tensor4<Fx16>, chunks: usize) -> Vec<Tensor4<Fx16>> {
    let [batch, c, h, w] = input.dims();
    let mut start = 0;
    chunk_lengths(batch, chunks)
        .into_iter()
        .map(|len| {
            let piece = Tensor4::from_fn([len, c, h, w], |[b, ci, y, x]| {
                input.get([start + b, ci, y, x])
            });
            start += len;
            piece
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_tensor::shape::LayerShape;
    use tfe_transfer::TransferScheme;

    fn det(seed: &mut u32) -> f32 {
        *seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
        (((*seed >> 20) & 0xf) as f32 - 7.5) / 8.0
    }

    fn small_net(seed: &mut u32) -> FunctionalNetwork {
        let shapes = vec![
            (LayerShape::conv("b1", 1, 8, 8, 8, 3, 1, 1).unwrap(), true),
            (LayerShape::conv("b2", 8, 8, 4, 4, 3, 1, 1).unwrap(), false),
        ];
        FunctionalNetwork::random(&shapes, TransferScheme::Scnn, || det(seed)).unwrap()
    }

    fn images(count: usize, seed: &mut u32) -> Vec<Tensor4<Fx16>> {
        (0..count)
            .map(|_| Tensor4::from_fn([1, 1, 8, 8], |_| Fx16::from_f32(det(seed))))
            .collect()
    }

    #[test]
    fn batch_matches_sequential_loop_bit_exactly() {
        let mut seed = 5;
        let net = small_net(&mut seed);
        let inputs = images(6, &mut seed);
        let sequential: Vec<NetworkOutput> = inputs
            .iter()
            .map(|i| net.run(i, ReuseConfig::FULL).unwrap())
            .collect();
        for threads in [1, 2, 4] {
            let batched = run_batch(
                &net,
                &inputs,
                ReuseConfig::FULL,
                BatchOptions::with_threads(threads),
            )
            .unwrap();
            assert_eq!(batched.outputs.len(), sequential.len());
            for (b, s) in batched.outputs.iter().zip(&sequential) {
                assert_eq!(b.activations, s.activations, "threads={threads}");
                assert_eq!(b.counters, s.counters, "threads={threads}");
            }
            let expected: Counters = sequential.iter().map(|s| s.counters).sum();
            assert_eq!(batched.counters, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let mut seed = 9;
        let net = small_net(&mut seed);
        let out = run_batch(&net, &[], ReuseConfig::FULL, BatchOptions::default()).unwrap();
        assert!(out.outputs.is_empty());
        assert_eq!(out.counters, Counters::new());
    }

    #[test]
    fn split_batch_round_trips() {
        let mut seed = 3;
        let packed = Tensor4::from_fn([3, 2, 4, 4], |_| Fx16::from_f32(det(&mut seed)));
        let split = split_batch(&packed);
        assert_eq!(split.len(), 3);
        for (b, img) in split.iter().enumerate() {
            assert_eq!(img.dims(), [1, 2, 4, 4]);
            for c in 0..2 {
                for y in 0..4 {
                    for x in 0..4 {
                        assert_eq!(img.get([0, c, y, x]), packed.get([b, c, y, x]));
                    }
                }
            }
        }
    }

    #[test]
    fn split_batch_chunks_never_returns_empty_chunks() {
        // Regression: more threads than images must yield fewer chunks,
        // not empty [0, C, H, W] tensors.
        let mut seed = 21;
        let packed = Tensor4::from_fn([3, 2, 4, 4], |_| Fx16::from_f32(det(&mut seed)));
        for chunks in [1usize, 2, 3, 4, 8, 64] {
            let split = split_batch_chunks(&packed, chunks);
            assert_eq!(split.len(), chunks.min(3), "chunks={chunks}");
            let mut b = 0;
            for piece in &split {
                let [pb, c, h, w] = piece.dims();
                assert!(pb > 0, "chunks={chunks} produced an empty chunk");
                assert_eq!([c, h, w], [2, 4, 4]);
                for pbi in 0..pb {
                    for ci in 0..c {
                        for y in 0..h {
                            for x in 0..w {
                                assert_eq!(
                                    piece.get([pbi, ci, y, x]),
                                    packed.get([b + pbi, ci, y, x])
                                );
                            }
                        }
                    }
                }
                b += pb;
            }
            assert_eq!(b, 3, "chunks={chunks} lost images");
        }
        assert!(split_batch_chunks(&packed, 0).is_empty());
    }

    #[test]
    fn chunk_lengths_cover_exactly_without_empties() {
        for len in 0..12usize {
            for chunks in 1..16usize {
                let lengths = chunk_lengths(len, chunks);
                assert_eq!(lengths.iter().sum::<usize>(), len, "{len}/{chunks}");
                assert_eq!(lengths.len(), chunks.min(len), "{len}/{chunks}");
                assert!(lengths.iter().all(|&l| l > 0), "{len}/{chunks}");
                // Balanced: sizes differ by at most one.
                if let (Some(max), Some(min)) = (lengths.iter().max(), lengths.iter().min()) {
                    assert!(max - min <= 1, "{len}/{chunks}");
                }
            }
        }
    }

    #[test]
    fn engine_batch_matches_wrapper_batch_bit_exactly() {
        let mut seed = 17;
        let net = small_net(&mut seed);
        let inputs = images(5, &mut seed);
        let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
        let scratches = ScratchPool::new();
        let want = run_batch(&net, &inputs, ReuseConfig::FULL, BatchOptions::default()).unwrap();
        // More threads than images exercises the no-empty-chunk path.
        for threads in [1usize, 2, 4, 9] {
            let got = run_engine_batch(
                &engine,
                &inputs,
                BatchOptions::with_threads(threads),
                &scratches,
            )
            .unwrap();
            assert_eq!(got.outputs.len(), want.outputs.len(), "threads={threads}");
            for (g, w) in got.outputs.iter().zip(&want.outputs) {
                assert_eq!(g.activations, w.activations, "threads={threads}");
                assert_eq!(g.counters, w.counters, "threads={threads}");
            }
            assert_eq!(got.counters, want.counters, "threads={threads}");
        }
        // Ambient-budget path and empty batch.
        let got = run_engine_batch(&engine, &inputs, BatchOptions::default(), &scratches).unwrap();
        assert_eq!(got.counters, want.counters);
        let empty = run_engine_batch(&engine, &[], BatchOptions::default(), &scratches).unwrap();
        assert!(empty.outputs.is_empty());
    }

    #[test]
    fn engine_batch_reports_the_first_error_in_input_order() {
        let mut seed = 23;
        let net = small_net(&mut seed);
        let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
        let scratches = ScratchPool::new();
        let mut inputs = images(3, &mut seed);
        inputs[1] = Tensor4::from_fn([1, 2, 8, 8], |_| Fx16::from_f32(det(&mut seed)));
        let err = run_engine_batch(&engine, &inputs, BatchOptions::default(), &scratches);
        assert!(matches!(
            err,
            Err(SimError::OperandMismatch {
                what: "input channels",
                ..
            })
        ));
        let zero = run_engine_batch(&engine, &inputs, BatchOptions::with_threads(0), &scratches);
        assert!(matches!(zero, Err(SimError::InvalidConfig { .. })));
    }

    #[test]
    fn zero_thread_request_is_a_typed_error() {
        let mut seed = 13;
        let net = small_net(&mut seed);
        let inputs = images(2, &mut seed);
        let err = run_batch(
            &net,
            &inputs,
            ReuseConfig::FULL,
            BatchOptions::with_threads(0),
        );
        assert!(
            matches!(err, Err(SimError::InvalidConfig { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn per_image_error_is_the_first_in_input_order() {
        let mut seed = 7;
        let net = small_net(&mut seed);
        let mut inputs = images(3, &mut seed);
        // Wrong channel count for the second image.
        inputs[1] = Tensor4::from_fn([1, 2, 8, 8], |_| Fx16::from_f32(det(&mut seed)));
        let err = run_batch(&net, &inputs, ReuseConfig::FULL, BatchOptions::default());
        assert!(matches!(
            err,
            Err(SimError::OperandMismatch {
                what: "input channels",
                ..
            })
        ));
    }
}
