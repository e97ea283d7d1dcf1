//! The in-process engine workloads: `vgg16-dense-b1` and
//! `resnet56-transferred-b8`.
//!
//! One closed-loop caller compiles a real-geometry conv stack with
//! `Engine::compile_with_policy` and calls `Engine::run_batched` on one
//! seeded batch until the time is up. Every call's wall time is scaled
//! by the reference windows on either side of it ([`crate::host`]); every
//! call's output and counters must equal the first call's, which is
//! checked bit for bit against the golden `conv2d_fx` stage chain before
//! timing starts.

use crate::host::{self, Reference};
use crate::report::{with_modelled_traffic, Report, RESNET_GROUPS, VGG_STAGES};
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tfe_energy::EnergyModel;
use tfe_nets::zoo;
use tfe_sim::counters::Counters;
use tfe_sim::engine::{BatchedRun, Engine, Scratch};
use tfe_sim::network::{FunctionalNetwork, FunctionalStage};
use tfe_sim::output::{process_plane, OutputConfig};
use tfe_sim::perf::{NetworkPerf, PerfConfig};
use tfe_tensor::conv::conv2d_fx;
use tfe_tensor::fixed::{Accum, Fx16};
use tfe_tensor::shape::LayerShape;
use tfe_tensor::tensor::Tensor4;
use tfe_transfer::analysis::ReuseConfig;
use tfe_transfer::layer::TransferredLayer;
use tfe_transfer::mode::ModePolicy;
use tfe_transfer::TransferScheme;

/// Compiles timed per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// Calls every engine workload makes at least, whatever `--seconds`
/// says: the tail rule needs eleven samples.
const MIN_CALLS: usize = 11;

/// One in-process workload's fixed configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Images per call.
    pub batch: usize,
    /// Intra-run worker budget of each call (`0` = `nproc`).
    pub workers: usize,
    /// VGG-16 dense at 64×64, or ResNet-56 SCNN at 32×32.
    pub vgg: bool,
    /// The reference kernel matching the workload's working set.
    pub kernel: host::Kernel,
}

/// VGG-16's 13 conv layers at real widths on 64×64, dense weights,
/// batch 1, one worker.
pub const VGG16_DENSE_B1: EngineWorkload = EngineWorkload {
    name: "vgg16-dense-b1",
    batch: 1,
    workers: 1,
    vgg: true,
    kernel: host::FACTORIZED_KERNEL,
};

/// ResNet-56's 55-conv CIFAR trunk at 32×32 with SCNN transferred
/// weights, batches of 8 on `nproc` workers.
pub const RESNET56_TRANSFERRED_B8: EngineWorkload = EngineWorkload {
    name: "resnet56-transferred-b8",
    batch: 8,
    workers: 0,
    vgg: false,
    kernel: host::L2_KERNEL,
};

impl EngineWorkload {
    fn workers(&self) -> usize {
        if self.workers == 0 {
            host::nproc()
        } else {
            self.workers
        }
    }
}

/// He-uniform bound for a layer's weights, so activations keep their
/// scale through a deep stack instead of saturating Q8.8.
fn weight_bound(shape: &LayerShape) -> f64 {
    (6.0 / (shape.channels_per_group() * shape.k() * shape.k()) as f64).sqrt()
}

/// The workload's network, weights drawn from `seed`.
fn build_network(wl: &EngineWorkload, seed: u64) -> FunctionalNetwork {
    let mut rng = Rng::new(seed, 1);
    let (net, side, scheme) = if wl.vgg {
        (zoo::vgg16(), 64, None)
    } else {
        (zoo::resnet56(), 32, Some(TransferScheme::Scnn))
    };
    let mut hw = side;
    let stages = net
        .conv_layers()
        .map(|layer| {
            let s = layer.shape();
            let in_hw = hw;
            let shape = LayerShape::conv(
                s.name(),
                s.n(),
                s.m(),
                in_hw,
                in_hw,
                s.k(),
                s.stride(),
                s.pad(),
            )
            .expect("zoo conv geometry rescales cleanly");
            let pool = layer.pool().is_some();
            hw = if pool { shape.e() / 2 } else { shape.e() };
            let bound = weight_bound(&shape);
            let weights = match scheme {
                Some(scheme) => TransferredLayer::random(&shape, scheme, || rng.symmetric(bound))
                    .expect("SCNN applies to every ResNet-56 conv"),
                None => TransferredLayer::Dense {
                    weights: Tensor4::from_fn([shape.m(), shape.n(), shape.k(), shape.k()], |_| {
                        rng.symmetric(bound)
                    }),
                },
            };
            FunctionalStage {
                shape,
                weights,
                bias: Vec::new(),
                output: if pool {
                    OutputConfig::RELU_POOL2
                } else {
                    OutputConfig::RELU_ONLY
                },
            }
        })
        .collect();
    FunctionalNetwork::new(stages).expect("zoo conv stacks chain")
}

/// The workload's input batch, drawn from `seed`.
fn build_input(net: &FunctionalNetwork, batch: usize, seed: u64) -> Tensor4<Fx16> {
    let mut rng = Rng::new(seed, 2);
    let s = &net.stages()[0].shape;
    Tensor4::from_fn([batch, s.n(), s.h(), s.w()], |_| {
        Fx16::from_f32(rng.symmetric(1.0))
    })
}

/// The golden reference: each stage as `conv2d_fx` over the expanded
/// dense filters, then the output stage (ReLU, pooling, re-quantization)
/// through `process_plane`, for image `image` of `input`.
fn golden(net: &FunctionalNetwork, input: &Tensor4<Fx16>, image: usize) -> Tensor4<Fx16> {
    let [_, c, h, w] = input.dims();
    let mut x = Tensor4::from_fn([1, c, h, w], |[_, ci, y, xx]| input.get([image, ci, y, xx]));
    for stage in net.stages() {
        let dense = stage
            .weights
            .expand_to_dense()
            .expect("compiled weights expand")
            .map(Fx16::from_f32);
        let acc = conv2d_fx(&x, &dense, &stage.shape).expect("golden conv geometry");
        let [_, m, e, f] = acc.dims();
        let mut scratch_counters = Counters::new();
        let planes: Vec<Vec<Vec<f32>>> = (0..m)
            .map(|mi| {
                let rows: Vec<Vec<_>> = (0..e)
                    .map(|y| (0..f).map(|xx| acc.get([0, mi, y, xx])).collect())
                    .collect();
                process_plane(&rows, stage.output, &mut scratch_counters)
            })
            .collect();
        let (oh, ow) = (planes[0].len(), planes[0][0].len());
        x = Tensor4::from_fn([1, m, oh, ow], |[_, mi, y, xx]| {
            Fx16::from_f32(planes[mi][y][xx])
        });
    }
    x
}

fn image_of(t: &Tensor4<Fx16>, image: usize) -> Vec<i16> {
    let [_, c, h, w] = t.dims();
    let len = c * h * w;
    t.as_slice()[image * len..][..len]
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// A timed call between two reference windows on the same thread
/// count.
#[derive(Debug, Clone, Copy)]
struct Sample {
    raw_ms: f64,
    /// The reference times just before and just after the call.
    ref_ms: [f64; 2],
    /// The call's (and its windows') nominal reference time.
    r0_ms: f64,
}

impl Sample {
    /// The host's reference time around the call: the mean of the
    /// windows on either side, which tracks drift during the call
    /// better than either alone.
    fn reference_ms(self) -> f64 {
        (self.ref_ms[0] + self.ref_ms[1]) / 2.0
    }

    fn normalized_ms(self) -> f64 {
        host::normalize(self.raw_ms, self.reference_ms(), self.r0_ms)
    }
}

/// The reference kernel plus its most recent window, which doubles as
/// the "before" window of the next call on the same thread count.
struct Host {
    reference: Reference,
    last: Option<(usize, f64)>,
}

impl Host {
    fn window(&mut self, threads: usize, tracer: &mut Tracer) -> Result<f64, String> {
        let span = tracer.begin("reference", None, None);
        let ms = self.reference.window(threads).map_err(|e| e.to_string())?;
        tracer.end(span);
        self.last = Some((threads, ms));
        Ok(ms)
    }

    /// The window before a call on `threads` threads: the last one if it
    /// ran on the same count, else a fresh one.
    fn before(&mut self, threads: usize, tracer: &mut Tracer) -> Result<f64, String> {
        match self.last {
            Some((t, ms)) if t == threads => Ok(ms),
            _ => self.window(threads, tracer),
        }
    }

    /// Times `f` between two reference windows on `threads` threads.
    fn timed<T>(
        &mut self,
        threads: usize,
        tracer: &mut Tracer,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> Result<(Sample, T), String> {
        let before = self.before(threads, tracer)?;
        let span = tracer.begin(name, None, None);
        let start = Instant::now();
        let out = f();
        let raw = start.elapsed();
        tracer.end(span);
        let after = self.window(threads, tracer)?;
        Ok((
            Sample {
                raw_ms: raw.as_secs_f64() * 1e3,
                ref_ms: [before, after],
                r0_ms: self.reference.kernel().r0_ms(threads),
            },
            out,
        ))
    }
}

/// Everything one engine workload run shares: the program under test,
/// its verified output, the host reference and the tracer.
struct Bench {
    engine: Engine,
    input: Tensor4<Fx16>,
    expected: Option<(Tensor4<Fx16>, Vec<Counters>)>,
    scratch: Scratch,
    host: Host,
    tracer: Tracer,
    mismatches: u64,
}

impl Bench {
    /// One timed call of `run_batched` on `workers` workers (on `input`,
    /// or the workload's batch). Checks the workload batch's output
    /// against the verified first call.
    fn sample(
        &mut self,
        input: Option<&Tensor4<Fx16>>,
        workers: usize,
        name: &'static str,
    ) -> Result<(Sample, BatchedRun), String> {
        let own = input.is_none();
        let input = input.unwrap_or(&self.input);
        let (engine, scratch) = (&self.engine, &mut self.scratch);
        let (sample, run) = self.host.timed(workers, &mut self.tracer, name, || {
            engine.run_batched(black_box(input), scratch, workers)
        })?;
        let run = run.map_err(|e| format!("run_batched failed: {e}"))?;
        if own {
            if let Some((activations, per_image)) = &self.expected {
                if run.activations != *activations || run.per_image != *per_image {
                    self.mismatches += 1;
                }
            }
        }
        Ok((sample, run))
    }

    /// The correctness gate, outside every timed window: the first call's
    /// image 0 against the golden chain, its `dense_macs` against
    /// `NetworkPerf`'s prediction. Every later call must then repeat the
    /// first call's activations and counters. Returns one image's
    /// counters and the analytic model.
    fn gate(
        &mut self,
        net: &FunctionalNetwork,
        workers: usize,
        report: &mut Report,
    ) -> Result<(Counters, NetworkPerf), String> {
        let (_, first) = self.sample(None, workers, "run")?;
        let span = self.tracer.begin("golden", None, None);
        let want = golden(net, &self.input, 0);
        self.tracer.end(span);
        if image_of(&first.activations, 0) != image_of(&want, 0) {
            report.problem("engine output differs from the golden conv2d_fx chain");
        }
        let perf = NetworkPerf::of_engine(&self.engine, &PerfConfig::default());
        let predicted = perf.total_counters().dense_macs;
        let per_image = first.per_image[0];
        if per_image.dense_macs != predicted {
            report.problem(format!(
                "run dense_macs {} != NetworkPerf prediction {predicted}",
                per_image.dense_macs
            ));
        }
        self.expected = Some((first.activations, first.per_image));
        Ok((per_image, perf))
    }

    /// Calls until `seconds` have passed (and at least [`MIN_CALLS`]).
    fn timed_loop(&mut self, workers: usize, seconds: f64) -> Result<Vec<Sample>, String> {
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        let mut samples = Vec::new();
        while samples.len() < MIN_CALLS || Instant::now() < end {
            samples.push(self.sample(None, workers, "run")?.0);
        }
        Ok(samples)
    }
}

/// Compiles `net` [`SETUPS`] times, each between one-thread reference
/// windows; returns the first engine and the compile samples.
fn compile_timed(
    net: &FunctionalNetwork,
    host: &mut Host,
    tracer: &mut Tracer,
) -> Result<(Engine, Vec<Sample>), String> {
    let mut engine = None;
    let mut samples = Vec::new();
    for _ in 0..SETUPS {
        let (sample, compiled) = host.timed(1, tracer, "compile", || {
            Engine::compile_with_policy(net, ReuseConfig::FULL, &ModePolicy::default())
        })?;
        let compiled = compiled.map_err(|e| format!("compile failed: {e}"))?;
        samples.push(sample);
        engine.get_or_insert(compiled);
    }
    Ok((engine.expect("SETUPS > 0"), samples))
}

/// Runs one engine workload; `traced` selects the per-layer run.
pub fn run(wl: &EngineWorkload, seed: u64, seconds: f64, tracer: Tracer) -> Result<Report, String> {
    let traced = tracer.enabled();
    let workers = wl.workers();
    let mut report = Report::default();
    let net = build_network(wl, seed);
    let input = build_input(&net, wl.batch, seed);
    let mut host = Host {
        reference: Reference::new(wl.kernel, workers.max(1)),
        last: None,
    };
    let mut tracer = tracer;
    let (engine, setups) = compile_timed(&net, &mut host, &mut tracer)?;
    let setup_s: Vec<f64> = setups.iter().map(|s| s.normalized_ms() / 1e3).collect();
    let mut bench = Bench {
        engine,
        input,
        expected: None,
        scratch: Scratch::new(),
        host,
        tracer,
        mismatches: 0,
    };

    let (per_image, perf) = bench.gate(&net, workers, &mut report)?;
    let per_image = with_modelled_traffic(per_image, &perf);
    let energy = EnergyModel::new().breakdown(&per_image, perf.runtime_seconds());
    let modes = bench.engine.exec_modes();
    let names: Vec<&str> = modes.iter().map(|m| m.as_str()).collect();
    report.note("modes", names.join(","));

    let samples = if traced {
        report.set_mode_mix(&modes);
        report.set_image_cost(&energy, &per_image, 1.0);
        for layer in perf.layers() {
            let key = format!("perf.stage.{}.cycles", stage_group(wl, layer.name()));
            let sum = report.metrics.get(&key).copied().unwrap_or(0.0);
            report.set(key, sum + layer.cycles() as f64);
        }
        traced_run(wl, &mut bench, seconds, &mut report)?
    } else {
        bench.timed_loop(workers, seconds)?
    };
    let normalized: Vec<f64> = samples.iter().map(|s| s.normalized_ms()).collect();
    let raw: Vec<f64> = samples.iter().map(|s| s.raw_ms).collect();
    let refs: Vec<f64> = samples.iter().map(|s| s.ref_ms[1]).collect();
    let calls = samples.len() as u64;
    report.attempted = calls + 1;
    report.failed = bench.mismatches;
    if bench.mismatches > 0 {
        report.problem(format!(
            "{} timed calls differed from the verified output",
            bench.mismatches
        ));
    }
    let total_s: f64 = normalized.iter().sum::<f64>() / 1e3;
    let tail = stats::tail(&normalized).expect("at least MIN_CALLS samples");
    report.note("calls", calls);
    report.note(
        "samples_raw_ms/ref_ms",
        samples
            .iter()
            .map(|s| format!("{:.1}/{:.2}", s.raw_ms, s.reference_ms()))
            .collect::<Vec<_>>()
            .join(" "),
    );
    report.note("setup_s.samples", format!("{setup_s:?}"));
    report.note(
        "setup.raw_s",
        format!(
            "{:?}",
            setups.iter().map(|s| s.raw_ms / 1e3).collect::<Vec<_>>()
        ),
    );
    report.note("host.ref_ms", stats::median(&refs));
    report.note("host.raw_ms_p50", stats::median(&raw));
    report.note(
        "host.raw_ms_tail",
        stats::tail(&raw).map_or(0.0, |t| t.value),
    );
    report.note(
        "latency_ms_tail.at",
        format!("p{:.2} of {} calls", tail.percentile, tail.samples),
    );
    report.note(
        "error_rate",
        bench.mismatches as f64 / report.attempted as f64,
    );

    if traced {
        report.set("host.ref_ms", stats::median(&refs));
        report.set("host.raw_ms_p50", stats::median(&raw));
        report.set("engine.compile_ms", stats::median(&setup_s) * 1e3);
        // The arenas hold Q8.8 samples (padded planes, the two stage
        // buffers) and accumulators (output planes, row parts).
        let [padded, out, stage_in, stage_next, parts] = bench.scratch.arena_capacities();
        let arena_bytes = (padded + stage_in + stage_next) * std::mem::size_of::<Fx16>()
            + (out + parts) * std::mem::size_of::<Accum>();
        report.set("scratch.arena_mb", arena_bytes as f64 / (1024.0 * 1024.0));
    } else {
        report.set("setup_s", stats::median(&setup_s));
        report.set("images_per_s", (calls as f64 * wl.batch as f64) / total_s);
        report.set("latency_ms_p50", stats::median(&normalized));
        report.set("latency_ms_tail", tail.value);
        report.set("max_rate_under_slo", calls as f64 / total_s);
        report.set(
            "success_rate",
            (report.attempted - report.failed) as f64 / report.attempted as f64,
        );
        report.set("peak_rss_mb", host::peak_rss_mb());
        report.set("tfe_cycles_per_image", perf.total_cycles() as f64);
        report.set("tfe_energy_uj_per_image", energy.total_mj() * 1e3);
        report.set("mac_reduction", per_image.mac_reduction());
    }
    write_trace(&bench.tracer, wl.name, seed, &mut report);
    Ok(report)
}

/// The per-layer run: alternates telemetry-on and telemetry-off calls,
/// checks the closure of per-stage telemetry against each traced call,
/// and measures the batch knobs.
fn traced_run(
    wl: &EngineWorkload,
    bench: &mut Bench,
    seconds: f64,
    report: &mut Report,
) -> Result<Vec<Sample>, String> {
    let workers = wl.workers();
    let sink = bench.engine.enable_telemetry(4096);
    let stage_count = bench.engine.stage_count();
    let names: Vec<String> = (0..stage_count)
        .map(|i| {
            bench
                .engine
                .stage_shape(i)
                .map_or_else(String::new, |s| s.name().to_owned())
        })
        .collect();
    let mut stage_ms = vec![0.0f64; stage_count];
    let mut stage_counters = vec![Counters::new(); stage_count];
    let mut traced_ms = Vec::new();
    let mut untraced = Vec::new();
    let mut prev = bench.engine.telemetry();
    let mut closure_violations: Vec<String> = Vec::new();
    let end = Instant::now() + Duration::from_secs_f64(seconds * 0.6);
    while traced_ms.len() < MIN_CALLS || Instant::now() < end {
        bench.engine.set_sink(tfe_telemetry::Sink::disabled());
        untraced.push(bench.sample(None, workers, "run")?.0);
        bench.engine.set_sink(sink.clone());
        let (sample, run) = bench.sample(None, workers, "run_traced")?;
        let now = bench.engine.telemetry();
        let scale = sample.r0_ms / sample.reference_ms();
        let mut wall_sum_ns = 0u64;
        let mut counter_sum = Counters::new();
        for (i, (layer, before)) in now.layers().iter().zip(prev.layers()).enumerate() {
            let wall = layer.wall_ns - before.wall_ns;
            let delta = layer.counters - before.counters;
            wall_sum_ns += wall;
            counter_sum.merge(&delta);
            stage_ms[i] += wall as f64 / 1e6 * scale;
            stage_counters[i].merge(&delta);
        }
        if wall_sum_ns as f64 / 1e6 > sample.raw_ms {
            closure_violations.push(format!(
                "stage wall sum {:.3} ms > call {:.3} ms",
                wall_sum_ns as f64 / 1e6,
                sample.raw_ms
            ));
        }
        if counter_sum != run.counters {
            closure_violations.push("stage counters do not sum to the call's counters".into());
        }
        traced_ms.push(sample.normalized_ms());
        prev = now;
    }
    bench.engine.set_sink(tfe_telemetry::Sink::disabled());
    for v in &closure_violations {
        report.problem(format!("closure: {v}"));
    }
    report.note("closure_violations", closure_violations.len());
    let calls = traced_ms.len() as f64;
    let untraced_ms: Vec<f64> = untraced.iter().map(|s| s.normalized_ms()).collect();
    report.set(
        "telemetry.overhead_pct",
        (stats::median(&traced_ms) / stats::median(&untraced_ms) - 1.0) * 100.0,
    );

    // Per-stage (or per-group) means over the traced calls.
    let mut groups: Vec<(String, f64, Counters)> = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let group = stage_group(wl, name);
        match groups.iter_mut().find(|(g, _, _)| *g == group) {
            Some((_, ms, c)) => {
                *ms += stage_ms[i];
                c.merge(&stage_counters[i]);
            }
            None => groups.push((group, stage_ms[i], stage_counters[i])),
        }
    }
    for (group, ms, counters) in &groups {
        let ms = ms / calls;
        report.set(format!("engine.stage.{group}.ms"), ms);
        report.set(
            format!("engine.stage.{group}.exec_over_dense"),
            counters.multiplies as f64 / counters.dense_macs.max(1) as f64,
        );
        if wl.vgg {
            let dense_per_call = counters.dense_macs as f64 / calls;
            report.set(
                format!("engine.stage.{group}.gmac_s"),
                dense_per_call / (ms / 1e3) / 1e9,
            );
        }
    }

    // The batch knobs (ResNet only): workers = 1 vs nproc at batch 8,
    // and per-image time at batch 1 vs batch 8.
    if !wl.vgg {
        let single = Tensor4::from_fn(
            {
                let [_, c, h, w] = bench.input.dims();
                [1, c, h, w]
            },
            |[_, c, y, x]| bench.input.get([0, c, y, x]),
        );
        let (mut one_worker, mut all_workers, mut b1) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..5 {
            one_worker.push(bench.sample(None, 1, "run_workers_1")?.0.normalized_ms());
            all_workers.push(bench.sample(None, workers, "run")?.0.normalized_ms());
            b1.push(
                bench
                    .sample(Some(&single), workers, "run_b1")?
                    .0
                    .normalized_ms(),
            );
        }
        let (t1, tn, tb1) = (
            stats::median(&one_worker),
            stats::median(&all_workers),
            stats::median(&b1),
        );
        report.set("batch.parallel_speedup", t1 / tn);
        report.set("batch.batching_gain", tb1 / (tn / wl.batch as f64));
    }
    Ok(untraced)
}

/// The per-layer name a stage reports under: VGG stages by their own
/// name, ResNet-56 stages by group (stem `conv1`, then `stage1..3`).
fn stage_group(wl: &EngineWorkload, name: &str) -> String {
    if wl.vgg {
        debug_assert!(VGG_STAGES.contains(&name));
        return name.to_owned();
    }
    let group = match name.split_once('_') {
        Some((prefix, _)) => format!("stage{}", prefix.trim_start_matches("conv")),
        None => name.to_owned(),
    };
    debug_assert!(RESNET_GROUPS.contains(&group.as_str()), "{group}");
    group
}

/// Writes the traced run's spans as JSON lines under `.bench_trace/`.
pub fn write_trace(tracer: &Tracer, workload: &str, seed: u64, report: &mut Report) {
    if !tracer.enabled() {
        return;
    }
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json_lines()))
    {
        Ok(()) => report.note("trace", path.display()),
        Err(e) => report.note("trace", format!("not written: {e}")),
    }
    for (name, ns) in tracer.self_time_ns() {
        report.note(format!("self_ms.{name}"), ns as f64 / 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet_stages_group_into_stem_and_three_stages() {
        let wl = RESNET56_TRANSFERRED_B8;
        assert_eq!(stage_group(&wl, "conv1"), "conv1");
        assert_eq!(stage_group(&wl, "conv1_0a"), "stage1");
        assert_eq!(stage_group(&wl, "conv3_8b"), "stage3");
    }

    #[test]
    fn a_call_is_scaled_by_the_mean_of_its_two_windows() {
        let call = Sample {
            raw_ms: 120.0,
            ref_ms: [20.0, 30.0],
            r0_ms: 25.0,
        };
        assert_eq!(call.reference_ms(), 25.0);
        assert_eq!(call.normalized_ms(), 120.0);
        // The same call on a host running at half speed.
        let slow = Sample {
            raw_ms: 240.0,
            ref_ms: [40.0, 60.0],
            r0_ms: 25.0,
        };
        assert_eq!(slow.normalized_ms(), call.normalized_ms());
    }

    #[test]
    fn seeded_inputs_repeat_and_differ_by_seed() {
        let net = build_network(&RESNET56_TRANSFERRED_B8, 5);
        assert_eq!(net.stages().len(), 55);
        let a = build_input(&net, 2, 5);
        assert_eq!(a, build_input(&net, 2, 5));
        assert_ne!(a, build_input(&net, 2, 6));
    }
}
