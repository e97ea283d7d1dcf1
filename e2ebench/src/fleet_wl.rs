//! The serving workload: `fleet-tcp-mixed`.
//!
//! `tfe-fleet` serves five miniature models behind `TcpServer` on
//! loopback. Open-loop Poisson arrivals at fixed rates are spread over
//! two connections; each request is timed from the moment it was *due*,
//! so a stall that delays later sends shows in their latency (no
//! coordinated omission). A geometric bisection over fixed offered rates
//! finds the highest rate whose p99 stays within the SLO with nothing
//! left unsent, and a closed-loop phase measures the replies per second
//! the fleet sustains when every connection always has a request in
//! flight. While requests flow, the main thread hot-swaps a freshly
//! compiled engine into one model per second, rotating through the
//! models. Every reply is compared bit for bit with the in-process
//! `FunctionalNetwork::run` output of the same model and input.
//!
//! At this load a request's latency is mostly fixed costs — the
//! batcher's flush delay, thread wake-ups, loopback round trips — which
//! do not scale with the MAC reference kernel's speed. So the latency
//! metrics are normalized by a reference of the same kind instead: the
//! benchmark's own hand-off path ([`host::Handoff`]), timed between the
//! measurement's windows. Throughput and the rate sweep stay raw: the
//! SLO is an absolute time.

use crate::engine_wl::write_trace;
use crate::host::{self, Reference};
use crate::report::{with_modelled_traffic, Report, FLEET_MODELS};
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tfe_energy::{EnergyBreakdown, EnergyModel};
use tfe_fleet::{demo, Fleet, FleetSpec, ModelSpec};
use tfe_serve::protocol::{read_frame, write_frame, WireRequest, WireResponse};
use tfe_serve::{ServeConfig, TcpServer};
use tfe_sim::counters::Counters;
use tfe_sim::engine::Engine;
use tfe_sim::network::FunctionalNetwork;
use tfe_sim::perf::{NetworkPerf, PerfConfig};
use tfe_tensor::fixed::Fx16;
use tfe_tensor::tensor::Tensor4;
use tfe_transfer::analysis::ReuseConfig;
use tfe_transfer::mode::{ExecMode, ModePolicy};

/// Latency objective on the p99, from due time to decoded reply.
const SLO: Duration = Duration::from_millis(20);
/// Connections the load spreads over (one generator thread each).
const CONNECTIONS: usize = 2;
/// Offered rate of the latency measurement, req/s.
const MEASURE_RATE: f64 = 200.0;
/// Lower bracket of the rate sweep, req/s: far below capacity, so a slow
/// host lowers the result step by step instead of failing a first
/// rate the sweep cannot go below.
const SWEEP_LOW: f64 = 25.0;
/// Upper bracket of the rate sweep, req/s (far past capacity).
const SWEEP_HIGH: f64 = 3200.0;
/// Bisection steps of the sweep: 128× between the brackets narrows to
/// about 4 % in seven halvings of the log range. Near capacity one try
/// decides which side the sweep goes on; the finer the last step, the
/// closer both sides end to that rate.
const SWEEP_STEPS: usize = 7;
/// Load phases the sweep budgets for: every step, plus a retry for
/// about half of them.
const SWEEP_PHASES: usize = 10;
/// Shares of `--seconds` given to the latency measurement, the
/// closed-loop throughput phase and the sweep (the rest covers warm-up
/// and set-up).
const MEASURE_SHARE: f64 = 0.42;
const SATURATE_SHARE: f64 = 0.1;
const SWEEP_SHARE: f64 = 0.38;
/// A sweep step stops sending once the generator runs this late; the
/// requests left count as unsent misses.
const ABORT_LATE: Duration = Duration::from_millis(100);
/// One hot-swap per this interval while requests flow.
const SWAP_EVERY: Duration = Duration::from_secs(1);
/// Fleet start-ups timed per run; `setup_s` is their median. A start-up
/// takes a few ms, so many of them cost little and steady the median.
const SETUPS: usize = 21;
/// Untimed start-ups before them, and the pause after each shutdown. A
/// start-up spawns about a dozen threads; timed back to back, start-ups
/// overlapped the exit of the previous fleet's threads, and run medians
/// ranged from 1.3 to 2.2 ms. The pause lets each one begin on a quiet
/// process.
const SETUP_WARMUPS: usize = 3;
const SETUP_PAUSE: Duration = Duration::from_millis(20);
/// Windows the latency measurement is split into, each between two
/// hand-off reference windows.
const MEASURE_WINDOWS: usize = 10;
/// `latency_ms_tail` is this quantile of the windows' tails. Bursts of
/// CPU time stolen by the hypervisor stall requests for milliseconds
/// and inflate the tails of the windows they hit, often half of a run;
/// the lower quartile reads the windows they missed. A slow path every
/// request can take, such as a hot-swap (about one per window), still
/// shows in every window.
const TAIL_WINDOW_QUANTILE: f64 = 0.25;
/// Round trips of one hand-off reference window, and the idle gap
/// before each (longer than the fleet threads' spin, so every thread of
/// the reference path sleeps between them).
const HANDOFF_ROUNDS: usize = 24;
const HANDOFF_GAP: Duration = Duration::from_millis(5);
/// Nominal hand-off round trip `R0`, ms: the reference host's median.
/// Frozen: changing it rescales every normalized fleet latency.
const HANDOFF_R0_MS: f64 = 0.8;
/// Sub-windows (by due time) of one sweep step; a rate passes when most
/// of them meet the SLO.
const STEP_WINDOWS: usize = 3;
/// Distinct input images the requests draw from.
const IMAGES: usize = 32;
/// Input geometry every miniature accepts.
const INPUT_DIMS: [usize; 4] = [1, 3, 12, 12];

/// Each shard's fixed serving configuration: batches of up to 8 flushed
/// 500 µs after their first request, no deadline, and one executor
/// running single-threaded batches, so executors × batch threads stays
/// within two CPUs under two connections. (With at most two requests in
/// flight a batch rarely fills, so every request waits out the flush
/// delay; the default 2 ms would dominate every latency.)
fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch_delay: Duration::from_micros(500),
        queue_capacity: 64,
        executors: 1,
        batch_threads: Some(1),
        ..ServeConfig::default()
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Global request id.
    pub id: u64,
    /// When it is due, from the phase start.
    pub due: Duration,
    /// Index into [`FLEET_MODELS`].
    pub model: usize,
    /// Index into the image pool.
    pub image: usize,
    /// Connection it is sent on.
    pub conn: usize,
}

/// A seeded open-loop Poisson schedule of `round(rate × duration)`
/// arrivals: a Poisson process conditioned on its count, i.e. arrival
/// times drawn uniformly over the window and sorted, so every seed
/// offers exactly the same load. Models are drawn by arrival weight,
/// images and connections uniformly; independent thinning keeps each
/// connection's arrivals Poisson.
#[must_use]
pub fn poisson_schedule(
    rate: f64,
    duration: Duration,
    seed: u64,
    stream: u64,
    first_id: u64,
) -> Vec<Request> {
    let mut rng = Rng::new(seed, 100 + stream);
    let count = (rate * duration.as_secs_f64()).round() as usize;
    let mut due: Vec<f64> = (0..count)
        .map(|_| rng.unit() * duration.as_secs_f64())
        .collect();
    due.sort_by(f64::total_cmp);
    let total_weight: u32 = FLEET_MODELS.iter().map(|(_, w)| w).sum();
    due.into_iter()
        .zip(first_id..)
        .map(|(t, id)| {
            let mut pick = rng.below(total_weight as usize) as u32;
            let model = FLEET_MODELS
                .iter()
                .position(|&(_, w)| {
                    let hit = pick < w;
                    pick = pick.saturating_sub(w);
                    hit
                })
                .expect("pick < total weight");
            Request {
                id,
                due: Duration::from_secs_f64(t),
                model,
                image: rng.below(IMAGES),
                conn: rng.below(CONNECTIONS),
            }
        })
        .collect()
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Served, and the reply matched the in-process output.
    Ok {
        /// The server-reported admission-to-completion latency.
        server_us: u64,
    },
    /// Served, but the reply differed from the in-process output.
    Mismatch,
    /// Refused or failed by the server, or a transport error.
    Failed,
    /// Never sent: the generator fell more than [`ABORT_LATE`] behind.
    Unsent,
}

/// One request's timeline, offsets from the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// The request.
    pub req: Request,
    /// When the generator sent it.
    pub sent: Duration,
    /// When its reply was decoded.
    pub done: Duration,
    /// How it ended.
    pub outcome: Outcome,
}

impl Done {
    /// Latency from the due time, ms; infinite for a request that did
    /// not succeed, so it misses every latency objective.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        match self.outcome {
            Outcome::Ok { .. } => (self.done - self.req.due).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        }
    }

    /// How late the generator sent it, ms.
    #[must_use]
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.req.due).as_secs_f64() * 1e3
    }
}

/// Time as the generator sees it: offsets from the phase start.
pub trait Clock {
    /// Now, from the phase start.
    fn now(&self) -> Duration;
    /// Blocks until `t`.
    fn sleep_until(&mut self, t: Duration);
}

struct RealClock(Instant);

impl Clock for RealClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&mut self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// Sends `schedule` in order, each request when due or as soon as the
/// previous reply arrived if it is already late, and times it from its
/// due time. With `abort_late`, stops once a send would be later than
/// that and marks the rest unsent.
pub fn drive(
    clock: &mut impl Clock,
    schedule: &[Request],
    abort_late: Option<Duration>,
    mut send: impl FnMut(&Request) -> Outcome,
) -> Vec<Done> {
    let mut out = Vec::with_capacity(schedule.len());
    for (i, req) in schedule.iter().enumerate() {
        clock.sleep_until(req.due);
        let sent = clock.now();
        if abort_late.is_some_and(|limit| sent.saturating_sub(req.due) > limit) {
            out.extend(schedule[i..].iter().map(|&req| Done {
                req,
                sent,
                done: sent,
                outcome: Outcome::Unsent,
            }));
            break;
        }
        let outcome = send(req);
        out.push(Done {
            req: *req,
            sent,
            done: clock.now(),
            outcome,
        });
    }
    out
}

/// Client-side detail of a traced request.
#[derive(Debug, Default, Clone)]
struct WireTimes {
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    /// Write start to reply frame read, minus the server's latency.
    overhead_us: Vec<f64>,
}

/// Everything a generator thread needs, shared read-only.
struct Shared {
    models: Vec<String>,
    images: Vec<Tensor4<Fx16>>,
    /// `expected[model][image]`: the in-process output bits and
    /// counters.
    expected: Vec<Vec<(Vec<i16>, Counters)>>,
}

/// One request over `stream`: encode, send, wait, decode, compare.
fn send_one(
    stream: &mut TcpStream,
    shared: &Shared,
    req: &Request,
    times: &mut WireTimes,
    tracer: &mut Tracer,
) -> Outcome {
    let span = tracer.begin("request", None, Some(req.id));
    let t0 = Instant::now();
    let s = tracer.begin("encode", span.id(), Some(req.id));
    let payload = WireRequest::Infer {
        input: shared.images[req.image].clone(),
        deadline_ms: None,
        model_id: Some(shared.models[req.model].clone()),
    }
    .to_json();
    tracer.end(s);
    let t1 = Instant::now();
    let s = tracer.begin("send", span.id(), Some(req.id));
    let sent = write_frame(stream, payload.as_bytes());
    tracer.end(s);
    let s = tracer.begin("wait", span.id(), Some(req.id));
    let frame = sent.and_then(|()| read_frame(stream));
    tracer.end(s);
    let t2 = Instant::now();
    let s = tracer.begin("decode", span.id(), Some(req.id));
    let reply = match frame {
        Ok(Some(bytes)) => String::from_utf8(bytes)
            .ok()
            .and_then(|text| WireResponse::from_json(&text).ok()),
        _ => None,
    };
    let outcome = match reply {
        Some(WireResponse::Ok {
            activations,
            counters,
            latency_us,
        }) => {
            let bits: Vec<i16> = activations.as_slice().iter().map(|v| v.to_bits()).collect();
            if (bits, counters) == shared.expected[req.model][req.image] {
                times
                    .overhead_us
                    .push((t2 - t1).as_secs_f64() * 1e6 - latency_us as f64);
                Outcome::Ok {
                    server_us: latency_us,
                }
            } else {
                Outcome::Mismatch
            }
        }
        _ => Outcome::Failed,
    };
    tracer.end(s);
    tracer.end(span);
    let t3 = Instant::now();
    times.encode_us.push((t1 - t0).as_secs_f64() * 1e6);
    times.decode_us.push((t3 - t2).as_secs_f64() * 1e6);
    outcome
}

/// The fleet under test plus its server and the benchmark's clients.
struct Rig {
    fleet: Fleet,
    server: TcpServer,
    conns: Vec<TcpStream>,
    nets: Vec<FunctionalNetwork>,
    shared: Shared,
    swap_ms: Vec<f64>,
    next_swap: usize,
    /// Index of the next generator thread's tracer: every phase's
    /// threads get fresh ones, so span ids never repeat within a run.
    next_tracer: u64,
}

/// What one phase produced.
#[derive(Default)]
struct Phase {
    done: Vec<Done>,
    times: WireTimes,
}

impl Rig {
    /// Runs one open-loop phase over every connection, hot-swapping on
    /// the main thread until every generator thread has finished.
    fn phase(
        &mut self,
        schedule: &[Request],
        abort_late: Option<Duration>,
        tracer: &mut Tracer,
    ) -> Phase {
        let phase_span = tracer.begin("phase", None, None);
        // A short lead so every generator is waiting before the first
        // request falls due.
        let start = Instant::now() + Duration::from_millis(5);
        let shared = &self.shared;
        let mut phase = Phase::default();
        let fleet = &self.fleet;
        let nets = &self.nets;
        let swap_ms = &mut self.swap_ms;
        let next_swap = &mut self.next_swap;
        let first_tracer = self.next_tracer;
        self.next_tracer += CONNECTIONS as u64;
        let results = std::thread::scope(|s| {
            let workers: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(c, stream)| {
                    let mine: Vec<Request> =
                        schedule.iter().filter(|r| r.conn == c).copied().collect();
                    let mut child = tracer.child(first_tracer + c as u64);
                    s.spawn(move || {
                        let mut times = WireTimes::default();
                        while Instant::now() < start {
                            std::thread::sleep(start - Instant::now());
                        }
                        let mut clock = RealClock(start);
                        let done = drive(&mut clock, &mine, abort_late, |req| {
                            send_one(stream, shared, req, &mut times, &mut child)
                        });
                        (done, times, child)
                    })
                })
                .collect();
            let mut swap_at = start + SWAP_EVERY / 2;
            while !workers.iter().all(|w| w.is_finished()) {
                if Instant::now() >= swap_at {
                    let k = *next_swap % nets.len();
                    let span = tracer.begin("hot_swap", phase_span.id(), None);
                    let t = Instant::now();
                    fleet
                        .hot_swap(FLEET_MODELS[k].0, &nets[k])
                        .expect("recompiling a served model succeeds");
                    swap_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    tracer.end(span);
                    *next_swap += 1;
                    swap_at += SWAP_EVERY;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            workers
                .into_iter()
                .map(|w| w.join().expect("generator thread panicked"))
                .collect::<Vec<_>>()
        });
        for (done, times, child) in results {
            phase.done.extend(done);
            phase.times.encode_us.extend(times.encode_us);
            phase.times.decode_us.extend(times.decode_us);
            phase.times.overhead_us.extend(times.overhead_us);
            tracer.absorb(child);
        }
        phase.done.sort_by_key(|d| d.req.id);
        tracer.end(phase_span);
        phase
    }
}

/// Geometric bisection between [`SWEEP_LOW`] and [`SWEEP_HIGH`] in
/// [`SWEEP_STEPS`] steps; `passes(step, rate)` tries one rate. Returns
/// the highest rate that passed, or the lower bracket if none did, so a
/// slow host lowers the result instead of zeroing it.
fn bisect_rate(mut passes: impl FnMut(usize, f64) -> bool) -> f64 {
    let (mut lo, mut hi) = (SWEEP_LOW, SWEEP_HIGH);
    for step in 0..SWEEP_STEPS {
        let rate = (lo * hi).sqrt();
        if passes(step, rate) {
            lo = rate;
        } else {
            hi = rate;
        }
    }
    lo
}

/// p99 within the SLO; misses are infinitely late.
fn p99_meets_slo(latencies_ms: &[f64]) -> bool {
    !latencies_ms.is_empty() && stats::quantile(latencies_ms, 0.99) <= SLO.as_secs_f64() * 1e3
}

/// Whether a stretch of requests (latencies in due order, misses
/// infinite) sustained its rate: the p99 met the SLO in most of its
/// [`STEP_WINDOWS`] consecutive sub-windows. Overload grows latency
/// through the whole stretch and fails every later window; one host
/// stall spoils at most one.
fn meets_slo(latencies_ms: &[f64]) -> bool {
    let n = latencies_ms.len();
    let passing = (0..STEP_WINDOWS)
        .filter(|i| p99_meets_slo(&latencies_ms[i * n / STEP_WINDOWS..(i + 1) * n / STEP_WINDOWS]))
        .count();
    2 * passing > STEP_WINDOWS
}

/// The fleet's models, the request images and every model's expected
/// reply to every image, all drawn from `seed`.
fn build_models(seed: u64) -> Result<(Vec<FunctionalNetwork>, Shared), String> {
    let nets: Vec<FunctionalNetwork> = FLEET_MODELS
        .iter()
        .map(|(id, _)| demo::demo_model(id, seed as u32).expect("fleet model ids are zoo names"))
        .collect();
    let mut rng = Rng::new(seed, 3);
    let images: Vec<Tensor4<Fx16>> = (0..IMAGES)
        .map(|_| Tensor4::from_fn(INPUT_DIMS, |_| Fx16::from_f32(rng.symmetric(1.0))))
        .collect();
    let expected = nets
        .iter()
        .map(|net| {
            images
                .iter()
                .map(|image| {
                    net.run(image, ReuseConfig::FULL)
                        .map(|out| {
                            let bits = out.activations.as_slice().iter().map(|v| v.to_bits());
                            (bits.collect(), out.counters)
                        })
                        .map_err(|e| format!("in-process reference run failed: {e}"))
                })
                .collect::<Result<_, String>>()
        })
        .collect::<Result<_, String>>()?;
    let models = FLEET_MODELS
        .iter()
        .map(|(id, _)| (*id).to_owned())
        .collect();
    Ok((
        nets,
        Shared {
            models,
            images,
            expected,
        },
    ))
}

impl Rig {
    /// Starts the fleet and its server `setups` times, keeping the last
    /// and timing each; connects the benchmark's clients.
    fn start(
        nets: Vec<FunctionalNetwork>,
        shared: Shared,
        setups: usize,
        tracer: &mut Tracer,
    ) -> Result<(Rig, Vec<f64>), String> {
        let spec = FleetSpec::new(
            FLEET_MODELS
                .iter()
                .zip(&nets)
                .map(|((id, _), net)| ModelSpec::new(*id, net.clone()).with_serve(serve_config()))
                .collect(),
        );
        let mut times = Vec::new();
        let mut live = None;
        for i in 0..SETUP_WARMUPS + setups {
            if let Some((fleet, server)) = live.take() {
                TcpServer::shutdown(server);
                let _ = Fleet::shutdown(fleet);
                std::thread::sleep(SETUP_PAUSE);
            }
            let span = tracer.begin("setup", None, None);
            let start = Instant::now();
            let fleet =
                Fleet::start(spec.clone()).map_err(|e| format!("fleet start failed: {e}"))?;
            let server = TcpServer::bind("127.0.0.1:0", fleet.client())
                .map_err(|e| format!("bind failed: {e}"))?;
            if i >= SETUP_WARMUPS {
                times.push(start.elapsed().as_secs_f64());
            }
            tracer.end(span);
            live = Some((fleet, server));
        }
        let (fleet, server) = live.ok_or("no fleet set-up ran")?;
        let conns = (0..CONNECTIONS)
            .map(|_| {
                let stream = TcpStream::connect(server.local_addr())
                    .map_err(|e| format!("connect failed: {e}"))?;
                stream
                    .set_nodelay(true)
                    .map_err(|e| format!("nodelay failed: {e}"))?;
                Ok(stream)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let rig = Rig {
            fleet,
            server,
            conns,
            nets,
            shared,
            swap_ms: Vec::new(),
            next_swap: 0,
            next_tracer: 1,
        };
        Ok((rig, times))
    }

    /// The rate sweep: geometric bisection between a rate far below
    /// capacity and one far past it, each failing rate tried twice.
    /// Returns the highest rate that met the SLO (the lower bracket if
    /// none did); every request sent joins `sent`.
    fn sweep(
        &mut self,
        seed: u64,
        step_len: Duration,
        tracer: &mut Tracer,
        sent: &mut Vec<Done>,
        report: &mut Report,
    ) -> f64 {
        let mut steps = Vec::new();
        let max_rate = bisect_rate(|step, rate| {
            // A rate fails only when two tries both miss: overload
            // repeats, a host stall seldom does.
            (0..2).any(|attempt| {
                let stream = 2 + 2 * step as u64 + attempt;
                let schedule = poisson_schedule(rate, step_len, seed, stream, stream << 32);
                let done = self.phase(&schedule, Some(ABORT_LATE), tracer).done;
                let latencies: Vec<f64> = done.iter().map(Done::latency_ms).collect();
                let pass =
                    !done.iter().any(|d| d.outcome == Outcome::Unsent) && meets_slo(&latencies);
                steps.push(format!(
                    "{rate:.0}:{}:p99={:.2}ms",
                    if pass { "pass" } else { "fail" },
                    stats::quantile(&latencies, 0.99)
                ));
                sent.extend(done.into_iter().filter(|d| d.outcome != Outcome::Unsent));
                pass
            })
        });
        report.note("sweep", steps.join(" "));
        max_rate
    }

    /// The closed-loop throughput phase: every request is due at once,
    /// so each connection sends its next request as soon as the previous
    /// reply is decoded, until `len` has passed. Returns the replies per
    /// second; every request sent joins `sent`.
    fn saturate(
        &mut self,
        seed: u64,
        len: Duration,
        tracer: &mut Tracer,
        sent: &mut Vec<Done>,
    ) -> f64 {
        // Twice the sweep's upper bracket: more than any connection can
        // send before `len` is up.
        let stream = 2 + 2 * SWEEP_STEPS as u64;
        let mut schedule = poisson_schedule(2.0 * SWEEP_HIGH, len, seed, stream, stream << 32);
        for req in &mut schedule {
            req.due = Duration::ZERO;
        }
        let done = self.phase(&schedule, Some(len), tracer).done;
        let done: Vec<Done> = done
            .into_iter()
            .filter(|d| d.outcome != Outcome::Unsent)
            .collect();
        let replies = done
            .iter()
            .filter(|d| matches!(d.outcome, Outcome::Ok { .. }))
            .count();
        let elapsed = done.iter().map(|d| d.done).max().unwrap_or(len);
        sent.extend(done);
        replies as f64 / elapsed.as_secs_f64()
    }

    /// Times `n` `stats` round trips on the first connection, µs.
    fn stats_round_trips(
        &mut self,
        n: usize,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> Vec<f64> {
        let stream = &mut self.conns[0];
        (0..n)
            .map(|_| {
                let span = tracer.begin("stats", None, None);
                let t = Instant::now();
                let ok = write_frame(stream, WireRequest::Stats.to_json().as_bytes())
                    .and_then(|()| read_frame(stream))
                    .ok()
                    .flatten()
                    .and_then(|b| String::from_utf8(b).ok())
                    .is_some_and(|text| {
                        matches!(
                            WireResponse::from_json(&text),
                            Ok(WireResponse::Stats { .. })
                        )
                    });
                let us = t.elapsed().as_secs_f64() * 1e6;
                tracer.end(span);
                if !ok {
                    report.problem("stats request failed");
                }
                us
            })
            .collect()
    }

    /// Closes the clients, stops the server and drains the fleet;
    /// returns the fleet's final view.
    fn shutdown(self) -> tfe_fleet::FleetSnapshot {
        drop(self.conns);
        self.server.shutdown();
        self.fleet.shutdown()
    }
}

/// The modelled cost of one image of the traffic mix: each model's
/// exact per-request counters (every reply is checked equal to them)
/// weighted by its arrival weight, so the figures are the same for every
/// seed. Returns the cycles, the energy breakdown and the summed
/// counters of one mix of `Σ weights` images.
fn mix_cost(
    expected: &[Vec<(Vec<i16>, Counters)>],
    perfs: &[NetworkPerf],
) -> (f64, EnergyBreakdown, Counters) {
    let total_weight: f64 = FLEET_MODELS.iter().map(|&(_, w)| f64::from(w)).sum();
    let mut mix = Counters::new();
    let (mut cycles, mut energy) = (0.0, EnergyBreakdown::default());
    for (m, &(_, weight)) in FLEET_MODELS.iter().enumerate() {
        let share = f64::from(weight) / total_weight;
        let counters = with_modelled_traffic(expected[m][0].1, &perfs[m]);
        let e = EnergyModel::new().breakdown(&counters, perfs[m].runtime_seconds());
        cycles += share * perfs[m].total_cycles() as f64;
        energy.pe_mj += share * e.pe_mj;
        energy.register_mj += share * e.register_mj;
        energy.sram_mj += share * e.sram_mj;
        energy.dram_mj += share * e.dram_mj;
        energy.static_mj += share * e.static_mj;
        for _ in 0..weight {
            mix.merge(&counters);
        }
    }
    (cycles, energy, mix)
}

/// Runs the fleet workload; a traced run skips the throughput phase
/// and the rate sweep.
pub fn run(seed: u64, seconds: f64, mut tracer: Tracer) -> Result<Report, String> {
    let traced = tracer.enabled();
    let mut report = Report::default();
    let (nets, shared) = build_models(seed)?;

    // The benchmark's own compile of each model: the modelled cost per
    // request and the mode mix.
    let compile_start = Instant::now();
    let engines: Vec<Engine> = nets
        .iter()
        .map(|net| {
            Engine::compile_with_policy(net, ReuseConfig::FULL, &ModePolicy::default())
                .map_err(|e| format!("compile failed: {e}"))
        })
        .collect::<Result<_, String>>()?;
    let compile_ms = compile_start.elapsed().as_secs_f64() * 1e3;
    let perfs: Vec<NetworkPerf> = engines
        .iter()
        .map(|e| NetworkPerf::of_engine(e, &PerfConfig::default()))
        .collect();
    let (cycles, energy, mix) = mix_cost(&shared.expected, &perfs);
    let mix_images: f64 = FLEET_MODELS.iter().map(|&(_, w)| f64::from(w)).sum();

    let (mut rig, setups) = Rig::start(nets, shared, if traced { 1 } else { SETUPS }, &mut tracer)?;

    let mut handoff = host::Handoff::start(serve_config().max_batch_delay)
        .map_err(|e| format!("hand-off reference failed to start: {e}"))?;
    let mut handoff_window = |tracer: &mut Tracer| -> Result<f64, String> {
        let span = tracer.begin("handoff", None, None);
        let ms = handoff
            .window(HANDOFF_ROUNDS, HANDOFF_GAP)
            .map_err(|e| format!("hand-off reference failed: {e}"))?;
        tracer.end(span);
        Ok(ms)
    };

    // Warm-up, then the latency measurement at the fixed rate: windows
    // of it, each between two hand-off windows and normalized by their
    // mean.
    let mut sent: Vec<Done> = Vec::new();
    let warm = poisson_schedule(MEASURE_RATE, Duration::from_millis(500), seed, 0, 0);
    sent.extend(rig.phase(&warm, None, &mut tracer).done);
    let measure_len = Duration::from_secs_f64(seconds * if traced { 0.8 } else { MEASURE_SHARE });
    let mut measured = Phase::default();
    let (mut latencies, mut raw_latencies, mut tails, mut handoffs) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        vec![handoff_window(&mut tracer)?],
    );
    for w in 0..MEASURE_WINDOWS as u64 {
        // Streams 0 (warm-up), 2 + 2 × step + try (sweep) and
        // 2 + 2 × SWEEP_STEPS (throughput) stay below 32.
        let stream = 32 + w;
        let schedule = poisson_schedule(
            MEASURE_RATE,
            measure_len / MEASURE_WINDOWS as u32,
            seed,
            stream,
            stream << 32,
        );
        let phase = rig.phase(&schedule, None, &mut tracer);
        handoffs.push(handoff_window(&mut tracer)?);
        let reference = (handoffs[handoffs.len() - 2] + handoffs[handoffs.len() - 1]) / 2.0;
        let raw: Vec<f64> = phase.done.iter().map(Done::latency_ms).collect();
        let normalized: Vec<f64> = raw
            .iter()
            .map(|&ms| host::normalize(ms, reference, HANDOFF_R0_MS))
            .collect();
        tails.push(stats::tail(&normalized).ok_or("too few measured requests for a tail")?);
        latencies.extend(normalized);
        raw_latencies.extend(raw);
        sent.extend(phase.done.iter().copied());
        measured.done.extend(phase.done);
        measured.times.encode_us.extend(phase.times.encode_us);
        measured.times.decode_us.extend(phase.times.decode_us);
        measured.times.overhead_us.extend(phase.times.overhead_us);
    }

    let (throughput, max_rate) = if traced {
        (0.0, 0.0)
    } else {
        let saturate_len = Duration::from_secs_f64(seconds * SATURATE_SHARE);
        let throughput = rig.saturate(seed, saturate_len, &mut tracer, &mut sent);
        let step_len = Duration::from_secs_f64(seconds * SWEEP_SHARE / SWEEP_PHASES as f64);
        let max_rate = rig.sweep(seed, step_len, &mut tracer, &mut sent, &mut report);
        (throughput, max_rate)
    };
    let stats_rtt = if traced {
        rig.stats_round_trips(20, &mut tracer, &mut report)
    } else {
        Vec::new()
    };
    handoff.stop();
    let swap_ms = stats::median(&rig.swap_ms);
    let snapshot = rig.shutdown();

    // Accounting over everything sent.
    let count = |outcome: Outcome| sent.iter().filter(|d| d.outcome == outcome).count() as u64;
    let (mismatches, failed) = (count(Outcome::Mismatch), count(Outcome::Failed));
    report.attempted = sent.len() as u64;
    report.failed = mismatches + failed;
    if mismatches > 0 {
        report.problem(format!(
            "{mismatches} replies differed from FunctionalNetwork::run"
        ));
    }
    if failed > 0 {
        report.problem(format!("{failed} requests were refused or failed"));
    }

    let late: Vec<f64> = measured.done.iter().map(Done::late_ms).collect();
    report.note("requests", report.attempted);
    report.note("measured_requests", measured.done.len());
    report.note("setup_s.samples", format!("{setups:?}"));
    report.note(
        "latency_ms_tail.at",
        format!(
            "lower quartile over {} windows of p{:.2} of {} requests: {:?}",
            tails.len(),
            tails[0].percentile,
            tails[0].samples,
            tails.iter().map(|t| t.value).collect::<Vec<_>>()
        ),
    );
    report.note("latency_ms_p99", stats::quantile(&latencies, 0.99));
    report.note("host.handoff_ms", format!("{handoffs:?}"));
    report.note("host.raw_ms_p50", stats::median(&raw_latencies));
    report.note("host.raw_ms_p99", stats::quantile(&raw_latencies, 0.99));
    report.note(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.note("swaps", snapshot.swaps);
    report.note("loadgen.late_ms_p99", stats::quantile(&late, 0.99));

    // Context only: the host's reference speed once the fleet is down.
    let span = tracer.begin("reference", None, None);
    let ref_ms = Reference::new(host::L2_KERNEL, 1)
        .window(1)
        .map_err(|e| e.to_string())?;
    tracer.end(span);
    report.note("host.ref_ms", ref_ms);

    if traced {
        report.set("engine.compile_ms", compile_ms);
        let modes: Vec<ExecMode> = engines.iter().flat_map(Engine::exec_modes).collect();
        report.set_mode_mix(&modes);
        report.set_image_cost(&energy, &mix, mix_images);
        let server_us: Vec<f64> = measured
            .done
            .iter()
            .filter_map(|d| match d.outcome {
                Outcome::Ok { server_us } => Some(server_us as f64),
                _ => None,
            })
            .collect();
        let times = &measured.times;
        let batches = snapshot.batches.max(1) as f64;
        let exec_ns: u64 = snapshot
            .models
            .iter()
            .flat_map(|m| m.telemetry.layers.iter().map(|l| l.wall_ns))
            .sum();
        report.set("serve.encode_us", stats::median(&times.encode_us));
        report.set("serve.decode_us", stats::median(&times.decode_us));
        report.set("serve.stats_rtt_us", stats::median(&stats_rtt));
        report.set("serve.server_latency_us_p50", stats::median(&server_us));
        report.set(
            "serve.tcp_overhead_us_p50",
            stats::median(&times.overhead_us),
        );
        report.set(
            "serve.mean_batch",
            snapshot.batched_requests as f64 / batches,
        );
        report.set("serve.exec_ms_per_batch", exec_ns as f64 / 1e6 / batches);
        report.set(
            "fleet.shed_ratio",
            snapshot.shed as f64 / snapshot.dispatched.max(1) as f64,
        );
        report.set("fleet.swap_ms", swap_ms);
        for model in &snapshot.models {
            report.set(
                format!("fleet.model.{}.p50_us", model.model),
                model.p50_us as f64,
            );
        }
        report.set("loadgen.late_ms_p99", stats::quantile(&late, 0.99));
        report.set("host.raw_ms_p50", stats::median(&raw_latencies));
        report.set("host.ref_ms", ref_ms);
    } else {
        report.set("setup_s", stats::median(&setups));
        report.set("images_per_s", throughput);
        report.set("latency_ms_p50", stats::median(&latencies));
        report.set(
            "latency_ms_tail",
            stats::quantile(
                &tails.iter().map(|t| t.value).collect::<Vec<_>>(),
                TAIL_WINDOW_QUANTILE,
            ),
        );
        report.set("max_rate_under_slo", max_rate);
        report.set(
            "success_rate",
            (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
        );
        report.set("peak_rss_mb", host::peak_rss_mb());
        report.set("tfe_cycles_per_image", cycles);
        report.set("tfe_energy_uj_per_image", energy.total_mj() * 1e3);
        report.set("mac_reduction", mix.mac_reduction());
    }
    write_trace(&tracer, "fleet-tcp-mixed", seed, &mut report);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_repeats_per_seed_and_differs_across_seeds() {
        let a = poisson_schedule(500.0, Duration::from_secs(2), 7, 1, 0);
        let b = poisson_schedule(500.0, Duration::from_secs(2), 7, 1, 0);
        let c = poisson_schedule(500.0, Duration::from_secs(2), 8, 1, 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // About rate × duration arrivals, in due order, on every
        // connection and model.
        assert!((800..1200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        for c in 0..CONNECTIONS {
            assert!(a.iter().any(|r| r.conn == c));
        }
        for m in 0..FLEET_MODELS.len() {
            assert!(a.iter().any(|r| r.model == m));
        }
        // The demo model carries twice the weight of each other model.
        let demo = a.iter().filter(|r| r.model == 0).count() as f64 / a.len() as f64;
        assert!((demo - 2.0 / 6.0).abs() < 0.06, "{demo}");
    }

    /// A clock that only moves when the generator sleeps or a send
    /// takes time (the send closure advances the shared cell).
    struct FakeClock(std::rc::Rc<std::cell::Cell<Duration>>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&mut self, t: Duration) {
            self.0.set(self.0.get().max(t));
        }
    }

    fn schedule_every_10ms(n: u64) -> Vec<Request> {
        (0..n)
            .map(|id| Request {
                id,
                due: Duration::from_millis(10 * id),
                model: 0,
                image: 0,
                conn: 0,
            })
            .collect()
    }

    #[test]
    fn latency_counts_from_due_time_through_a_stall() {
        // Requests due every 10 ms, each served in 1 ms, except the
        // first, which stalls for 50 ms.
        let time = std::rc::Rc::new(std::cell::Cell::new(Duration::ZERO));
        let mut clock = FakeClock(time.clone());
        let done = drive(&mut clock, &schedule_every_10ms(6), None, |req| {
            let service = if req.id == 0 { 50 } else { 1 };
            time.set(time.get() + Duration::from_millis(service));
            Outcome::Ok { server_us: 0 }
        });
        let latencies: Vec<f64> = done.iter().map(Done::latency_ms).collect();
        // Request 1 was due at 10 ms but could only go at 50 ms: its
        // latency is 41 ms, not the 1 ms its own round trip took.
        assert_eq!(latencies, vec![50.0, 41.0, 32.0, 23.0, 14.0, 5.0]);
        let late: Vec<f64> = done.iter().map(Done::late_ms).collect();
        assert_eq!(late, vec![0.0, 40.0, 31.0, 22.0, 13.0, 4.0]);
    }

    #[test]
    fn the_sweep_converges_on_capacity_and_never_reads_zero() {
        for capacity in [40.0, 200.0, 1500.0, 3000.0] {
            let found = bisect_rate(|_, rate| rate <= capacity);
            // Seven halvings of the 128x log range leave a step of
            // 2^(7/128).
            assert!(
                found <= capacity && found > capacity / 1.04,
                "{capacity}: {found}"
            );
        }
        // A host too slow for any rate reads the lower bracket, not 0.
        assert_eq!(bisect_rate(|_, _| false), SWEEP_LOW);
        let mut tried = Vec::new();
        bisect_rate(|step, rate| {
            tried.push((step, rate));
            false
        });
        assert_eq!(tried.len(), SWEEP_STEPS);
        assert!(tried.iter().all(|&(_, rate)| rate > SWEEP_LOW));
    }

    #[test]
    fn a_generator_too_far_behind_stops_and_counts_misses() {
        let time = std::rc::Rc::new(std::cell::Cell::new(Duration::ZERO));
        let mut clock = FakeClock(time.clone());
        // Every send takes 30 ms against 10 ms gaps: lateness grows by
        // 20 ms per request and passes 45 ms at the fourth.
        let done = drive(
            &mut clock,
            &schedule_every_10ms(8),
            Some(Duration::from_millis(45)),
            |_| {
                time.set(time.get() + Duration::from_millis(30));
                Outcome::Ok { server_us: 0 }
            },
        );
        assert_eq!(done.len(), 8);
        let unsent = done.iter().filter(|d| d.outcome == Outcome::Unsent).count();
        assert_eq!(unsent, 5);
        assert!(done[4].latency_ms().is_infinite());
        let latencies: Vec<f64> = done.iter().map(Done::latency_ms).collect();
        assert!(!meets_slo(&latencies));
    }
}
