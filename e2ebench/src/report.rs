//! The metric catalog and the run's result line.
//!
//! Every run prints every metric of its kind (end-to-end, or per-layer
//! for a traced run) on every workload: a metric a workload does not
//! exercise reads `0` and the README says which. The catalog here is the
//! single list `BENCHMARK.json` mirrors (a test checks the two agree).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use tfe_energy::EnergyBreakdown;
use tfe_sim::counters::Counters;
use tfe_sim::perf::NetworkPerf;
use tfe_transfer::mode::ExecMode;

/// End-to-end metrics: `(name, unit, better)`.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("images_per_s", "img/s", "higher"),
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_tail", "ms", "lower"),
    ("max_rate_under_slo", "req/s", "higher"),
    ("success_rate", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("tfe_cycles_per_image", "cycles", "lower"),
    ("tfe_energy_uj_per_image", "uJ", "lower"),
    ("mac_reduction", "ratio", "higher"),
];

/// VGG-16's thirteen conv layers, in order.
pub const VGG_STAGES: [&str; 13] = [
    "conv1_1", "conv1_2", "conv2_1", "conv2_2", "conv3_1", "conv3_2", "conv3_3", "conv4_1",
    "conv4_2", "conv4_3", "conv5_1", "conv5_2", "conv5_3",
];

/// ResNet-56's stage groups: the stem and the three residual stages.
pub const RESNET_GROUPS: [&str; 4] = ["conv1", "stage1", "stage2", "stage3"];

/// The fleet's models, in registry order, with their arrival weights.
pub const FLEET_MODELS: [(&str, u32); 5] = [
    ("demo", 2),
    ("alexnet", 1),
    ("resnet56", 1),
    ("mobilenet-mini", 1),
    ("alexnet-p90", 1),
];

/// Per-layer metrics: `(name, unit, better)`.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut m: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: String, unit, better| m.push((name, unit, better));
    add("engine.compile_ms".into(), "ms", "lower");
    for s in VGG_STAGES {
        add(format!("engine.stage.{s}.ms"), "ms", "lower");
        add(format!("engine.stage.{s}.gmac_s"), "GMAC/s", "higher");
        add(
            format!("engine.stage.{s}.exec_over_dense"),
            "ratio",
            "lower",
        );
    }
    for g in RESNET_GROUPS {
        add(format!("engine.stage.{g}.ms"), "ms", "lower");
        add(
            format!("engine.stage.{g}.exec_over_dense"),
            "ratio",
            "lower",
        );
    }
    for (mode, better) in [
        ("dense", "higher"),
        ("transferred", "higher"),
        ("factorized", "lower"),
        ("sparse", "higher"),
    ] {
        add(format!("engine.stages_{mode}"), "count", better);
    }
    for s in VGG_STAGES.iter().chain(RESNET_GROUPS.iter()) {
        add(format!("perf.stage.{s}.cycles"), "cycles", "lower");
    }
    for part in ["pe", "register", "sram", "dram", "static"] {
        add(format!("energy.{part}_uj"), "uJ", "lower");
    }
    for (counter, unit) in [
        ("sr_reads", "count"),
        ("psum_mem_reads", "count"),
        ("weight_reads", "count"),
        ("dram_bits", "bit"),
    ] {
        add(format!("counters.{counter}_per_image"), unit, "lower");
    }
    add("batch.parallel_speedup".into(), "ratio", "higher");
    add("batch.batching_gain".into(), "ratio", "higher");
    add("scratch.arena_mb".into(), "MiB", "lower");
    for (name, unit, better) in [
        ("encode_us", "us", "lower"),
        ("decode_us", "us", "lower"),
        ("stats_rtt_us", "us", "lower"),
        ("server_latency_us_p50", "us", "lower"),
        ("tcp_overhead_us_p50", "us", "lower"),
        ("mean_batch", "count", "higher"),
        ("exec_ms_per_batch", "ms", "lower"),
    ] {
        add(format!("serve.{name}"), unit, better);
    }
    add("fleet.shed_ratio".into(), "ratio", "lower");
    add("fleet.swap_ms".into(), "ms", "lower");
    for (id, _) in FLEET_MODELS {
        add(format!("fleet.model.{id}.p50_us"), "us", "lower");
    }
    add("loadgen.late_ms_p99".into(), "ms", "lower");
    add("host.ref_ms".into(), "ms", "lower");
    add("host.raw_ms_p50".into(), "ms", "lower");
    add("telemetry.overhead_pct".into(), "%", "lower");
    m
}

/// A run's counters plus the traffic only the analytic model counts:
/// the functional datapath charges no weight-register reads and no
/// off-chip bits, so those two come from `NetworkPerf`'s per-layer
/// plans (one image's worth).
#[must_use]
pub fn with_modelled_traffic(mut counters: Counters, perf: &NetworkPerf) -> Counters {
    let model = perf.total_counters();
    counters.weight_reads = model.weight_reads;
    counters.dram_bits = model.dram_bits;
    counters
}

/// What one run found: the result line's fields plus diagnostics
/// printed above it.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (calls or requests) attempted.
    pub attempted: u64,
    /// Operations that failed: errors, rejections and output
    /// mismatches.
    pub failed: u64,
    /// Measured metrics by name.
    pub metrics: BTreeMap<String, f64>,
    /// `key: value` diagnostics printed before the result line.
    pub notes: Vec<(String, String)>,
    /// Failed checks, one line each; the run is correct when there are
    /// none.
    pub problems: Vec<String>,
}

impl Report {
    /// Records the compiled stages' mode mix
    /// (`engine.stages_{dense,transferred,factorized,sparse}`).
    pub fn set_mode_mix(&mut self, modes: &[ExecMode]) {
        for mode in [
            ExecMode::Dense,
            ExecMode::Transferred,
            ExecMode::Factorized,
            ExecMode::Sparse,
        ] {
            let count = modes.iter().filter(|&&m| m == mode).count();
            self.set(format!("engine.stages_{}", mode.as_str()), count as f64);
        }
    }

    /// Records one image's modelled energy by component (`energy.*_uj`)
    /// and the counters behind it (`counters.*_per_image`), given the
    /// counters of `images` images.
    pub fn set_image_cost(&mut self, energy: &EnergyBreakdown, counters: &Counters, images: f64) {
        for (part, mj) in [
            ("pe", energy.pe_mj),
            ("register", energy.register_mj),
            ("sram", energy.sram_mj),
            ("dram", energy.dram_mj),
            ("static", energy.static_mj),
        ] {
            self.set(format!("energy.{part}_uj"), mj * 1e3);
        }
        for (name, value) in [
            ("sr_reads", counters.sr_reads),
            ("psum_mem_reads", counters.psum_mem_reads),
            ("weight_reads", counters.weight_reads),
            ("dram_bits", counters.dram_bits),
        ] {
            self.set(format!("counters.{name}_per_image"), value as f64 / images);
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records a diagnostic.
    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// Records a failed check; the run is then not correct.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// The result line: every catalog metric of the run's kind, in
    /// catalog order, metrics the workload does not exercise as `0`.
    ///
    /// # Panics
    ///
    /// If a measured value is not finite, or a workload set a metric the
    /// catalog does not list (both are bugs in the benchmark).
    #[must_use]
    pub fn result_line(&self, traced: bool) -> String {
        let catalog: Vec<(String, &str)> = if traced {
            per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u, _)| (n.to_owned(), u))
                .collect()
        };
        for name in self.metrics.keys() {
            assert!(
                catalog.iter().any(|(n, _)| n == name),
                "metric {name} is not in the catalog"
            );
        }
        let mut metrics = String::new();
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Extracts the `(name, unit, better)` triples of one metric list of
    /// `BENCHMARK.json` without a JSON dependency: each entry is one
    /// `{"name": …, "unit": …, "better": …}` object.
    fn benchmark_list(section: &str) -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[body.find('[').unwrap() + 1..body.find(']').unwrap()];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect("key present");
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"').unwrap() + 1;
            let close = open + rest[open..].find('"').unwrap();
            rest[open..close].to_owned()
        };
        body.split('}')
            .filter(|obj| obj.contains("\"name\""))
            .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let e2e: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_owned(), u.to_owned(), b.to_owned()))
            .collect();
        assert_eq!(benchmark_list("end_to_end"), e2e);
        let layers: Vec<(String, String, String)> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_owned(), b.to_owned()))
            .collect();
        assert_eq!(benchmark_list("per_layer"), layers);
        assert!(layers.len() <= 128);
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.25);
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        for (name, _, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")), "{name}");
        }
        r.problem("mismatch");
        assert!(r.result_line(false).starts_with("{\"correct\": false"));
    }
}
