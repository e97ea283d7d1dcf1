//! Host normalization: a fixed reference kernel timed around every
//! measured call, the guard that keeps its windows clean, and the host
//! fingerprint every run records.
//!
//! The benchmark host's speed drifts for seconds to minutes at a time,
//! so a raw wall-clock sample says as much about the host as about the
//! program. Around each timed call the benchmark runs its own kernel on
//! as many threads as the call used, and scales the call's time by `R0 /
//! reference time`. `R0` is frozen per [`Kernel`], so normalized values
//! stay in ms (or img/s) at a nominal host speed.
//!
//! A slow spell does not slow every instruction mix alike, so each
//! workload gets a kernel shaped like its own hot loop:
//! [`L2_KERNEL`] is an `i16 × i16 → i32` multiply-accumulate sweep over
//! 2 MiB, the instruction mix and working set of the engine's row
//! kernels on ResNet-56; [`FACTORIZED_KERNEL`] runs the factorized
//! dot-product loop (gather-sum each group of taps, multiply once per
//! group) over synthetic tables with VGG-16's layer geometry, the loop
//! every VGG-16 stage compiles to.
//!
//! The serving workload's latency is mostly thread wake-ups and loopback
//! round trips, which a MAC kernel does not track; [`Handoff`] is its
//! reference, a frozen request path with the same hand-offs.

use crate::rng::Rng;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Accumulator row length: one 16 KiB `i32` row, L1-resident, like the
/// engine's output rows.
const ACC_LEN: usize = 4096;

/// Filter taps of the reference correlation.
const TAPS: [i32; 3] = [3, -5, 7];

/// What one reference pass computes on each thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Work {
    /// `sweeps` 3-tap correlation sweeps over `mib` MiB.
    Mac { mib: usize, sweeps: usize },
    /// `sweeps` factorized passes over VGG-16's 13 conv layers at 64×64
    /// (padded planes of the real sizes, 3×3 taps over every input
    /// channel), keeping one output channel in `unit_div`.
    Factorized { unit_div: usize, sweeps: usize },
}

/// One reference kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kernel {
    /// What a pass computes.
    pub work: Work,
    /// Nominal pass time in ms per thread count (index = threads − 1;
    /// counts past the table use its last entry). Frozen: changing one
    /// rescales every metric normalized with this kernel.
    pub r0_ms: [f64; 2],
}

impl Kernel {
    /// The nominal reference time `R0` for a window on `threads`
    /// threads.
    #[must_use]
    pub fn r0_ms(&self, threads: usize) -> f64 {
        self.r0_ms[threads.clamp(1, self.r0_ms.len()) - 1]
    }
}

/// The L2-resident kernel: 48 sweeps over 2 MiB.
pub const L2_KERNEL: Kernel = Kernel {
    work: Work::Mac { mib: 2, sweeps: 48 },
    r0_ms: [26.0, 45.0],
};

/// The factorized kernel: two passes over one VGG-16 output channel in
/// 32 (about 3 MiB of tables and planes).
pub const FACTORIZED_KERNEL: Kernel = Kernel {
    work: Work::Factorized {
        unit_div: 32,
        sweeps: 2,
    },
    r0_ms: [70.0, 70.0],
};

/// VGG-16's conv layers at 64×64: input channels, output channels,
/// input side.
const VGG16_64: [(usize, usize, usize); 13] = [
    (3, 64, 64),
    (64, 64, 64),
    (64, 128, 32),
    (128, 128, 32),
    (128, 256, 16),
    (256, 256, 16),
    (256, 256, 16),
    (256, 512, 8),
    (512, 512, 8),
    (512, 512, 8),
    (512, 512, 4),
    (512, 512, 4),
    (512, 512, 4),
];

/// CPU time the rest of the process may use during one reference
/// window before the guard fails it: this much plus
/// [`GUARD_SLACK_SHARE`] of the reference threads' own CPU time. That
/// covers thread spawn/join bookkeeping and idle pollers (the TCP
/// server's accept loop wakes every 5 ms), far below what a spinning
/// thread takes.
const GUARD_SLACK: Duration = Duration::from_micros(1500);
const GUARD_SLACK_SHARE: f64 = 0.05;

/// Scales a raw wall-clock sample to the nominal host speed: `raw × R0 /
/// reference`. A host running slow inflates `raw` and `reference`
/// alike, so the ratio cancels the drift.
#[must_use]
pub fn normalize(raw: f64, reference_ms: f64, r0_ms: f64) -> f64 {
    raw * r0_ms / reference_ms
}

/// A background thread used CPU inside a reference window, so the
/// window measured a slower host than the one the call ran on.
#[derive(Debug, Clone)]
pub struct GuardError {
    /// Process CPU time outside the reference threads.
    pub other_cpu: Duration,
    /// The reference threads' own CPU time.
    pub reference_cpu: Duration,
}

impl std::fmt::Display for GuardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "normalization guard: {:.3} ms of process CPU outside the reference threads \
             ({:.3} ms inside)",
            self.other_cpu.as_secs_f64() * 1e3,
            self.reference_cpu.as_secs_f64() * 1e3
        )
    }
}

/// One factorized layer of the reference: a padded input plane and,
/// per kept output channel, its taps grouped by quantized weight.
struct FactLayer {
    plane: Vec<i16>,
    pw: usize,
    side: usize,
    units: Vec<Vec<(i64, Vec<u32>)>>,
}

/// One reference thread's data, built once from fixed values so every
/// run sweeps identical data.
enum Lane {
    Mac {
        input: Vec<i16>,
        acc: Vec<i32>,
    },
    Factorized {
        layers: Vec<FactLayer>,
        sums: Vec<i64>,
        totals: Vec<i64>,
    },
}

impl Lane {
    fn new(work: Work, thread: usize) -> Self {
        match work {
            Work::Mac { mib, .. } => Lane::Mac {
                input: (0..mib << 19)
                    .map(|i| ((i * 31 + thread * 17) % 509) as i16 - 254)
                    .collect(),
                acc: vec![0; ACC_LEN],
            },
            Work::Factorized { unit_div, .. } => {
                let mut rng = Rng::new(0x7fe0 + thread as u64, 7);
                let layers = VGG16_64
                    .iter()
                    .map(|&(n, m, side)| fact_layer(&mut rng, n, m / unit_div, side))
                    .collect();
                Lane::Factorized {
                    layers,
                    sums: Vec::new(),
                    totals: Vec::new(),
                }
            }
        }
    }

    /// `sweeps` sweeps on the calling thread; returns that thread's CPU
    /// time for them.
    fn run(&mut self, sweeps: usize) -> Duration {
        let cpu0 = thread_cpu();
        for _ in 0..sweeps {
            match self {
                Lane::Mac { input, acc } => sweep(black_box(input), acc),
                Lane::Factorized {
                    layers,
                    sums,
                    totals,
                } => {
                    for layer in layers.iter() {
                        factorized_layer(black_box(layer), sums, totals);
                    }
                }
            }
        }
        thread_cpu().saturating_sub(cpu0)
    }
}

/// A layer with `units` output channels over `n` input channels on a
/// `side × side` plane (padding 1): He-uniform Q8.8 weights, zero taps
/// dropped, the rest grouped by value as offsets into the padded plane.
fn fact_layer(rng: &mut Rng, n: usize, units: usize, side: usize) -> FactLayer {
    let pw = side + 2;
    let plane = (0..n * pw * pw)
        .map(|_| rng.symmetric(256.0) as i16)
        .collect();
    let bound = (6.0 / (n * 9) as f64).sqrt() * 256.0;
    let units = (0..units.max(2))
        .map(|_| {
            let mut groups: Vec<(i64, Vec<u32>)> = Vec::new();
            for c in 0..n {
                for ky in 0..3 {
                    for kx in 0..3 {
                        let w = rng.symmetric(bound).round() as i64;
                        if w == 0 {
                            continue;
                        }
                        let off = ((c * pw + ky) * pw + kx) as u32;
                        match groups.binary_search_by_key(&w, |g| g.0) {
                            Ok(i) => groups[i].1.push(off),
                            Err(i) => groups.insert(i, (w, vec![off])),
                        }
                    }
                }
            }
            groups
        })
        .collect();
    FactLayer {
        plane,
        pw,
        side,
        units,
    }
}

/// The factorized dot product of every kept unit of `layer`, row by
/// row: each group's activations summed, then one multiply per group.
/// The column stride is read at run time, as the engine's is.
fn factorized_layer(layer: &FactLayer, sums: &mut Vec<i64>, totals: &mut Vec<i64>) {
    let s = black_box(1usize);
    let f = layer.side;
    for unit in &layer.units {
        for oy in 0..layer.side {
            totals.clear();
            totals.resize(f, 0);
            let row_shift = oy * s * layer.pw;
            for (w, taps) in unit {
                sums.clear();
                sums.resize(f, 0);
                for &off in taps {
                    let base = off as usize + row_shift;
                    for (ox, sum) in sums.iter_mut().enumerate() {
                        *sum += i64::from(layer.plane[base + ox * s]);
                    }
                }
                for (total, &sum) in totals.iter_mut().zip(sums.iter()) {
                    *total += w * sum;
                }
            }
            black_box(&totals);
        }
    }
}

/// A reference kernel's per-thread data, built once.
pub struct Reference {
    kernel: Kernel,
    lanes: Vec<Lane>,
}

impl Reference {
    /// Data for up to `threads` concurrent reference threads.
    #[must_use]
    pub fn new(kernel: Kernel, threads: usize) -> Self {
        Reference {
            kernel,
            lanes: (0..threads.max(1))
                .map(|t| Lane::new(kernel.work, t))
                .collect(),
        }
    }

    /// Runs a warm-up pass and a timed pass on `threads` threads and
    /// returns the wall time of the timed one, in ms. Fails when any
    /// other thread of the process used CPU during the timed pass.
    ///
    /// # Errors
    ///
    /// [`GuardError`] when the rest of the process used more than the
    /// guard's slack of CPU inside the window.
    pub fn window(&mut self, threads: usize) -> Result<f64, GuardError> {
        let threads = threads.clamp(1, self.lanes.len());
        let sweeps = match self.kernel.work {
            Work::Mac { sweeps, .. } | Work::Factorized { sweeps, .. } => sweeps,
        };
        // The MAC kernel warms up with a full pass; one factorized sweep
        // brings its tables back into cache.
        let warm = match self.kernel.work {
            Work::Mac { .. } => sweeps,
            Work::Factorized { .. } => 1,
        };
        self.pass(threads, warm);
        let proc0 = process_cpu();
        let start = Instant::now();
        let reference_cpu = self.pass(threads, sweeps);
        let wall = start.elapsed();
        let proc_cpu = process_cpu().saturating_sub(proc0);
        let other_cpu = proc_cpu.saturating_sub(reference_cpu);
        if other_cpu > GUARD_SLACK + reference_cpu.mul_f64(GUARD_SLACK_SHARE) {
            return Err(GuardError {
                other_cpu,
                reference_cpu,
            });
        }
        Ok(wall.as_secs_f64() * 1e3)
    }

    /// The kernel this reference runs.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// `sweeps` sweeps on each of `threads` threads; returns the
    /// reference threads' summed CPU time.
    fn pass(&mut self, threads: usize, sweeps: usize) -> Duration {
        if threads == 1 {
            return self.lanes[0].run(sweeps);
        }
        std::thread::scope(|s| {
            let workers: Vec<_> = self
                .lanes
                .iter_mut()
                .take(threads)
                .map(|lane| s.spawn(move || lane.run(sweeps)))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("reference thread panicked"))
                .sum()
        })
    }
}

/// One 3-tap correlation sweep of `input` into the accumulator row,
/// wrapping like the engine's saturation-free kernels.
fn sweep(input: &[i16], acc: &mut [i32]) {
    let [w0, w1, w2] = TAPS;
    for block in input.chunks_exact(ACC_LEN + 2) {
        for (j, a) in acc.iter_mut().enumerate() {
            let t = i32::from(block[j])
                .wrapping_mul(w0)
                .wrapping_add(i32::from(block[j + 1]).wrapping_mul(w1))
                .wrapping_add(i32::from(block[j + 2]).wrapping_mul(w2));
            *a = a.wrapping_add(t);
        }
    }
    black_box(&acc);
}

/// Payload of one hand-off reference frame, bytes: about a served
/// request's JSON.
const HANDOFF_FRAME: usize = 2048;

/// The serving workload's reference: a frozen request path the
/// benchmark owns, with the hand-offs of one served request. The client
/// writes a frame over loopback TCP to a reader thread, which queues it
/// to a batching thread; that thread waits out a flush delay and queues
/// it to an executor thread, which writes the reply frame back. Pings
/// are spaced so every thread is idle when the next one arrives, as the
/// fleet's threads are at the measured rate, so a round trip costs what
/// the host charges for waking idle threads and crossing the loopback.
pub struct Handoff {
    client: TcpStream,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Handoff {
    /// Starts the reference path's three threads, the batching thread
    /// holding each frame for `flush`.
    ///
    /// # Errors
    ///
    /// When the loopback listener or a thread cannot be set up.
    pub fn start(flush: Duration) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let client = TcpStream::connect(listener.local_addr()?)?;
        let (mut inbound, _) = listener.accept()?;
        let mut outbound = inbound.try_clone()?;
        client.set_nodelay(true)?;
        inbound.set_nodelay(true)?;
        let (to_batcher, batcher_rx) = mpsc::channel::<Vec<u8>>();
        let (to_executor, executor_rx) = mpsc::channel::<Vec<u8>>();
        let reader = std::thread::Builder::new().spawn(move || {
            let mut frame = vec![0u8; HANDOFF_FRAME];
            while inbound.read_exact(&mut frame).is_ok() {
                if to_batcher.send(frame.clone()).is_err() {
                    break;
                }
            }
        })?;
        let batcher = std::thread::Builder::new().spawn(move || {
            while let Ok(frame) = batcher_rx.recv() {
                let flush_at = Instant::now() + flush;
                let mut held = vec![frame];
                while let Some(left) = flush_at.checked_duration_since(Instant::now()) {
                    match batcher_rx.recv_timeout(left) {
                        Ok(more) => held.push(more),
                        Err(mpsc::RecvTimeoutError::Timeout) => break,
                        Err(mpsc::RecvTimeoutError::Disconnected) => return,
                    }
                }
                for frame in held {
                    if to_executor.send(frame).is_err() {
                        return;
                    }
                }
            }
        })?;
        let executor = std::thread::Builder::new().spawn(move || {
            while let Ok(frame) = executor_rx.recv() {
                if outbound.write_all(&frame).is_err() {
                    break;
                }
            }
        })?;
        Ok(Handoff {
            client,
            threads: vec![reader, batcher, executor],
        })
    }

    /// `rounds` round trips, each after `gap` of idleness; returns their
    /// median, ms.
    ///
    /// # Errors
    ///
    /// When the loopback connection fails.
    pub fn window(&mut self, rounds: usize, gap: Duration) -> std::io::Result<f64> {
        let frame = vec![0x5a_u8; HANDOFF_FRAME];
        let mut reply = vec![0u8; HANDOFF_FRAME];
        let mut times = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            std::thread::sleep(gap);
            let start = Instant::now();
            self.client.write_all(&frame)?;
            self.client.read_exact(&mut reply)?;
            times.push(start.elapsed().as_secs_f64() * 1e3);
        }
        Ok(crate::stats::median(&times))
    }

    /// Closes the connection and waits for the three threads to end.
    pub fn stop(self) {
        let _ = self.client.shutdown(std::net::Shutdown::Both);
        drop(self.client);
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Reads one CPU-time clock. The process clock is the nanosecond form of
/// the `utime + stime` total `/proc/self/stat` reports in 10 ms ticks —
/// too coarse for windows of a few milliseconds.
fn cpu_clock(clock_id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and the
    // clock ids are the kernel's fixed CPU-time clocks.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is non-negative"),
        u32::try_from(ts.tv_nsec).expect("tv_nsec is below 1e9"),
    )
}

/// CPU time of the whole process, all threads (including exited ones).
#[must_use]
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread.
#[must_use]
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of the process, MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// The host's CPU time so far, in ticks summed over its CPUs: time
/// stolen by the hypervisor for other guests, and the total.
#[must_use]
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user and nice.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// Share of the host's CPU time stolen between two [`cpu_ticks`]
/// readings, percent.
#[must_use]
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Logical CPUs available to the process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The host fingerprint every run records: CPU count, CPU model and the
/// compiler that built the benchmark.
#[must_use]
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    vec![
        ("nproc", nproc().to_string()),
        ("cpu_model", cpu),
        ("rustc", env!("BENCH_RUSTC_VERSION").to_owned()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_cancels_a_uniform_slowdown() {
        // A host 30 % slow stretches the call and the reference alike.
        let (call, reference, r0) = (100.0, 6.0, 6.0);
        let slow = 1.3;
        let a = normalize(call, reference, r0);
        let b = normalize(call * slow, reference * slow, r0);
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        // At the nominal host speed the value is unchanged.
        assert_eq!(normalize(42.0, r0, r0), 42.0);
        // A reference twice as slow as nominal halves the sample.
        assert_eq!(normalize(10.0, 2.0 * r0, r0), 5.0);
    }

    #[test]
    fn r0_covers_every_thread_count() {
        let k = L2_KERNEL;
        assert_eq!(k.r0_ms(0), k.r0_ms[0]);
        assert_eq!(k.r0_ms(1), k.r0_ms[0]);
        assert_eq!(k.r0_ms(64), k.r0_ms[k.r0_ms.len() - 1]);
    }

    #[test]
    fn factorized_layer_groups_every_nonzero_tap_once() {
        let mut rng = Rng::new(1, 7);
        let (n, side) = (4, 6);
        let layer = fact_layer(&mut rng, n, 3, side);
        let pw = side + 2;
        assert_eq!(layer.plane.len(), n * pw * pw);
        for unit in &layer.units {
            let mut offs: Vec<u32> = unit.iter().flat_map(|(_, t)| t.clone()).collect();
            assert!(unit.iter().all(|(w, t)| *w != 0 && !t.is_empty()));
            assert!(
                unit.windows(2).all(|g| g[0].0 < g[1].0),
                "groups sorted by weight"
            );
            offs.sort_unstable();
            offs.dedup();
            assert_eq!(offs.len(), unit.iter().map(|(_, t)| t.len()).sum::<usize>());
            // Every tap plus the furthest output shift stays in the plane.
            let worst = (side - 1) * pw + (side - 1);
            assert!(offs.iter().all(|&o| o as usize + worst < layer.plane.len()));
        }
        let (mut sums, mut totals) = (Vec::new(), Vec::new());
        factorized_layer(&layer, &mut sums, &mut totals);
        // The last row's totals equal the plain dot product of the last unit.
        let unit = layer.units.last().expect("units");
        let oy = side - 1;
        for (ox, &total) in totals.iter().enumerate() {
            let dot: i64 = unit
                .iter()
                .flat_map(|(w, t)| t.iter().map(move |&o| (w, o)))
                .map(|(w, o)| w * i64::from(layer.plane[o as usize + oy * pw + ox]))
                .sum();
            assert_eq!(total, dot);
        }
    }

    #[test]
    fn handoff_round_trip_waits_out_the_flush() {
        let mut handoff = Handoff::start(Duration::from_millis(2)).expect("loopback reference");
        let ms = handoff
            .window(3, Duration::from_millis(1))
            .expect("round trips");
        handoff.stop();
        assert!((2.0..1000.0).contains(&ms), "{ms}");
    }

    #[test]
    fn steal_share_is_stolen_over_total_ticks() {
        assert_eq!(steal_pct((10, 1000), (30, 1400)), 5.0);
        assert_eq!(steal_pct((10, 1000), (10, 1000)), 0.0);
        let (steal, total) = cpu_ticks().expect("/proc/stat is readable");
        assert!(steal <= total);
    }

    /// The guard sees the whole test process, so the two tests that
    /// exercise it must not overlap each other.
    static GUARD_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn clean_window_passes_the_guard() {
        let _serial = GUARD_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let mut reference = Reference::new(L2_KERNEL, 2);
        // Other tests may run concurrently; one clean window suffices.
        let window = (0..20)
            .find_map(|i| reference.window(1 + i % 2).ok())
            .expect("a window with nothing else running");
        assert!(window > 0.0);
    }

    #[test]
    fn background_spinner_fails_the_guard() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let _serial = GUARD_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let stop = AtomicBool::new(false);
        let mut reference = Reference::new(L2_KERNEL, 1);
        let failed = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
            let failed = (0..5).any(|_| reference.window(1).is_err());
            stop.store(true, Ordering::Relaxed);
            failed
        });
        assert!(failed, "a spinning thread must trip the guard");
    }
}
