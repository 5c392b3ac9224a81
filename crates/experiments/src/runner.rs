//! Shared experiment machinery: run scales and the [`Sweep`] that runs a
//! figure's configurations in parallel, averages their repeats, and
//! records their metrics.

use std::num::NonZeroUsize;
use std::thread;

use broadcast_core::{
    LossCounters, MacStats, NetActivity, ScenarioCounts, SimConfig, SimReport, SuppressionCounts,
    World,
};
use manet_sim_engine::{fan_out, Histogram, HistogramSnapshot, DEFAULT_LATENCY_BOUNDS_S};

/// How much work a figure reproduction does.
///
/// The paper runs 10 000 broadcast requests per data point. [`Scale::Full`]
/// matches that; the smaller scales preserve every curve's shape while
/// keeping the whole suite interactive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test sized: ~1 minute for the whole figure suite.
    Quick,
    /// The default: statistically stable curves in a few minutes.
    Default,
    /// The paper's full 10 000 broadcasts per data point.
    Full,
}

impl Scale {
    /// Broadcast requests per simulation run.
    pub fn broadcasts(self) -> u32 {
        match self {
            Scale::Quick => 60,
            Scale::Default => 400,
            Scale::Full => 10_000,
        }
    }

    /// Independent repetitions (distinct seeds) averaged per data point.
    pub fn repeats(self) -> u64 {
        match self {
            Scale::Quick => 1,
            Scale::Default => 2,
            Scale::Full => 1,
        }
    }

    /// Parses a `--scale` argument.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "default" => Some(Scale::Default),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// Mean RE / SRB / latency over the repeats of one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AveragedReport {
    /// Scheme label of the underlying runs.
    pub scheme: String,
    /// Map label of the underlying runs.
    pub map: String,
    /// Mean reachability.
    pub reachability: f64,
    /// Mean saved-rebroadcast ratio.
    pub saved_rebroadcasts: f64,
    /// Mean broadcast latency, seconds.
    pub avg_latency_s: f64,
    /// Mean HELLO frames per run.
    pub hello_packets: f64,
    /// Mean data frames per run.
    pub data_frames: f64,
    /// Mean collisions per run.
    pub collisions: f64,
    /// Mean simulated seconds per run.
    pub sim_seconds: f64,
    /// Sample standard deviation of reachability across repeats (0 for a
    /// single repeat).
    pub reachability_std: f64,
    /// Number of repeats averaged.
    pub repeats: usize,
}

impl AveragedReport {
    fn from_reports(reports: &[SimReport]) -> Self {
        assert!(!reports.is_empty(), "need at least one report to average");
        let n = reports.len() as f64;
        let re_mean = reports.iter().map(|r| r.reachability).sum::<f64>() / n;
        let re_std = if reports.len() > 1 {
            let var = reports
                .iter()
                .map(|r| (r.reachability - re_mean).powi(2))
                .sum::<f64>()
                / (n - 1.0);
            var.sqrt()
        } else {
            0.0
        };
        AveragedReport {
            scheme: reports[0].scheme.clone(),
            map: reports[0].map.clone(),
            reachability: re_mean,
            saved_rebroadcasts: reports.iter().map(|r| r.saved_rebroadcasts).sum::<f64>() / n,
            avg_latency_s: reports.iter().map(|r| r.avg_latency_s).sum::<f64>() / n,
            hello_packets: reports.iter().map(|r| r.hello_packets as f64).sum::<f64>() / n,
            data_frames: reports.iter().map(|r| r.data_frames as f64).sum::<f64>() / n,
            collisions: reports.iter().map(|r| r.collisions as f64).sum::<f64>() / n,
            sim_seconds: reports.iter().map(|r| r.sim_seconds).sum::<f64>() / n,
            reachability_std: re_std,
            repeats: reports.len(),
        }
    }
}

/// Low-level counters and distributions summed over the repeats of one
/// configuration — the payload of the `--metrics` JSON output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetricsSummary {
    /// Frame-delivery losses by cause, summed over repeats.
    pub losses: LossCounters,
    /// MAC activity summed over repeats (`max_queue_depth` is the max).
    pub mac: MacStats,
    /// HELLO traffic and neighbor churn summed over repeats.
    pub net: NetActivity,
    /// Scheme decisions summed over repeats.
    pub suppression: SuppressionCounts,
    /// Per-broadcast latency distribution, seconds.
    pub latency_s: HistogramSnapshot,
    /// Distribution of the MAC's backoff draws, in slots.
    pub backoff_slots: HistogramSnapshot,
    /// Scenario activity summed over repeats; `None` when no run carried
    /// a scenario.
    pub scenario: Option<ScenarioCounts>,
}

impl RunMetricsSummary {
    fn from_reports(reports: &[SimReport]) -> Self {
        let mut losses = LossCounters::default();
        let mut mac = MacStats::default();
        let mut net = NetActivity::default();
        let mut suppression = SuppressionCounts::default();
        let mut scenario: Option<ScenarioCounts> = None;
        let mut latency = Histogram::new(&DEFAULT_LATENCY_BOUNDS_S);
        for r in reports {
            losses.merge(&r.losses);
            mac.merge(&r.mac);
            net.merge(&r.net);
            suppression.merge(&r.suppression);
            if let Some(counts) = &r.scenario {
                scenario
                    .get_or_insert_with(ScenarioCounts::default)
                    .merge(counts);
            }
            for b in &r.per_broadcast {
                latency.record(b.latency.as_secs_f64());
            }
        }
        // The DCF draws uniformly from 0..=CW_MIN slots; buckets are
        // upper-inclusive (`v <= bound`), so bounds 0..=CW_MIN-1 give one
        // bucket per slot with the largest slot in the overflow bucket.
        let backoff_bounds: Vec<f64> = (0..mac.draw_counts.len() - 1).map(|s| s as f64).collect();
        let mut backoff = Histogram::new(&backoff_bounds);
        for (slots, &n) in mac.draw_counts.iter().enumerate() {
            backoff.record_n(slots as f64, n);
        }
        RunMetricsSummary {
            losses,
            mac,
            net,
            suppression,
            latency_s: latency.snapshot(),
            backoff_slots: backoff.snapshot(),
            scenario,
        }
    }
}

/// One `(scheme, map)` data point of a [`Sweep`]: the metrics of every
/// repeat of one configuration, summed.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRecord {
    /// Scheme label of the underlying runs.
    pub scheme: String,
    /// Map label of the underlying runs.
    pub map: String,
    /// Repeats summed into the metrics.
    pub repeats: usize,
    /// The summed counters and distributions.
    pub metrics: RunMetricsSummary,
}

/// Builds the `--metrics` record for reports that already ran — the same
/// summation a [`Sweep`] records per configuration, exposed so single-run
/// front ends (`manet-sim --metrics`) can emit the identical document.
///
/// # Panics
///
/// Panics when `reports` is empty.
pub fn metrics_record(reports: &[SimReport]) -> MetricsRecord {
    assert!(!reports.is_empty(), "need at least one report");
    MetricsRecord {
        scheme: reports[0].scheme.clone(),
        map: reports[0].map.clone(),
        repeats: reports.len(),
        metrics: RunMetricsSummary::from_reports(reports),
    }
}

/// The run context of one figure: its [`Scale`] and one [`MetricsRecord`]
/// per configuration it ran, in the order it ran them.
#[derive(Debug)]
pub struct Sweep {
    /// How much work each data point does.
    pub scale: Scale,
    records: Vec<MetricsRecord>,
}

impl Sweep {
    /// An empty sweep at `scale`.
    pub fn new(scale: Scale) -> Self {
        Sweep {
            scale,
            records: Vec::new(),
        }
    }

    /// Runs every configuration `scale.repeats()` times and averages each
    /// one's headline metrics, in `configs` order. See [`Sweep::run_reports`].
    pub fn run(&mut self, configs: &[SimConfig]) -> Vec<AveragedReport> {
        self.run_reports(configs)
            .iter()
            .map(|reports| AveragedReport::from_reports(reports))
            .collect()
    }

    /// Runs every configuration `scale.repeats()` times with seeds
    /// `seed, seed+1, …` and returns each one's reports, in `configs`
    /// order. The figure modules reuse one seed across schemes, giving
    /// paired comparisons (identical placements, trajectories, and
    /// workloads).
    ///
    /// Every `(config, repeat)` pair is one job of a single [`fan_out`]
    /// over `available_parallelism` threads. Outputs come back in job
    /// order, so each config's repeats fold in the sequential order and
    /// its [`MetricsRecord`] is appended on the calling thread, in config
    /// order: worker scheduling never reaches the results.
    pub fn run_reports(&mut self, configs: &[SimConfig]) -> Vec<Vec<SimReport>> {
        let repeats = self.scale.repeats() as usize;
        let helpers = thread::available_parallelism().map_or(1, NonZeroUsize::get) - 1;
        let mut reports = fan_out(configs.len() * repeats, helpers, |job| {
            let mut config = configs[job / repeats].clone();
            config.seed = config.seed.wrapping_add((job % repeats) as u64);
            World::new(config).run()
        })
        .into_iter();
        configs
            .iter()
            .map(|_| {
                let chunk: Vec<SimReport> = reports.by_ref().take(repeats).collect();
                self.records.push(metrics_record(&chunk));
                chunk
            })
            .collect()
    }

    /// The recorded data points, stable-sorted by `(scheme, map)`: ties
    /// (one label pair run under different settings) keep job order.
    pub fn into_records(mut self) -> Vec<MetricsRecord> {
        self.records
            .sort_by(|a, b| (&a.scheme, &a.map).cmp(&(&b.scheme, &b.map)));
        self.records
    }
}

/// Runs every `(scheme, map)` pair of a figure's sweep.
///
/// Returns `results[scheme_index][map_index]`. All runs share
/// [`BASE_SEED`]-derived seeds, so schemes are compared on identical host
/// placements, trajectories, and workloads. `tweak` customizes each
/// configuration (speed overrides, neighbor-info policy, …).
pub fn run_grid(
    maps: &[u32],
    schemes: &[broadcast_core::SchemeSpec],
    sweep: &mut Sweep,
    tweak: impl Fn(broadcast_core::SimConfigBuilder) -> broadcast_core::SimConfigBuilder,
) -> Vec<Vec<AveragedReport>> {
    let configs: Vec<SimConfig> = schemes
        .iter()
        .flat_map(|scheme| maps.iter().map(move |&map| (scheme, map)))
        .map(|(scheme, map)| {
            let builder = SimConfig::builder(map, scheme.clone())
                .broadcasts(sweep.scale.broadcasts())
                .seed(BASE_SEED);
            tweak(builder).build()
        })
        .collect();
    let mut flat = sweep.run(&configs).into_iter();
    schemes
        .iter()
        .map(|_| flat.by_ref().take(maps.len()).collect())
        .collect()
}

/// The paper's six map sizes (side length in 500 m units).
pub const PAPER_MAPS: [u32; 6] = [1, 3, 5, 7, 9, 11];

/// Base seed shared by all figures so runs are reproducible end to end.
pub const BASE_SEED: u64 = 20_260_705;

#[cfg(test)]
mod tests {
    use super::*;
    use broadcast_core::{NeighborInfo, SchemeSpec};

    #[test]
    fn averaging_runs_distinct_seeds() {
        let config = SimConfig::builder(3, SchemeSpec::Flooding)
            .hosts(15)
            .broadcasts(3)
            .seed(1)
            .build();
        let avg = Sweep::new(Scale::Default).run(&[config]).remove(0);
        assert_eq!(avg.map, "3x3");
        assert!(avg.reachability >= 0.0 && avg.reachability <= 1.01);
    }

    #[test]
    fn averaging_reports_spread() {
        let config = SimConfig::builder(5, SchemeSpec::Counter(2))
            .hosts(25)
            .broadcasts(5)
            .seed(9)
            .build();
        let avg = Sweep::new(Scale::Default).run(&[config]).remove(0);
        assert_eq!(avg.repeats, 2);
        assert!(avg.reachability_std >= 0.0);
        // Two distinct seeds virtually never agree to 15 decimal places.
        assert!(avg.reachability_std > 0.0 || avg.reachability == 1.0);
    }

    #[test]
    fn metrics_capture_records_and_drains_sorted() {
        let config = SimConfig::builder(3, SchemeSpec::Counter(2))
            .hosts(20)
            .broadcasts(4)
            .seed(5)
            .build();
        let flooding = SimConfig::builder(3, SchemeSpec::Flooding)
            .hosts(20)
            .broadcasts(4)
            .seed(5)
            .build();
        let mut sweep = Sweep::new(Scale::Default);
        let _ = sweep.run(&[flooding, config]);
        let records = sweep.into_records();
        assert_eq!(records.len(), 2);
        // Sorted by (scheme, map): C=2 before flooding, whatever the job order.
        assert_eq!(records[0].scheme, "C=2");
        assert_eq!(records[1].scheme, "flooding");
        let rec = &records[0];
        assert_eq!(rec.map, "3x3");
        assert_eq!(rec.repeats, 2);
        assert_eq!(rec.metrics.latency_s.count, 8, "4 broadcasts x 2 repeats");
        assert_eq!(
            rec.metrics.backoff_slots.count,
            rec.metrics.mac.backoff_draws
        );
        assert!(rec.metrics.suppression.scheduled > 0);
    }

    #[test]
    fn parallel_repeats_match_sequential() {
        // The plain sequential loop over seeds `seed + i`; the fanned-out
        // sweep must reproduce it bit for bit, both in the averaged report
        // and in the recorded metrics.
        let config = SimConfig::builder(3, SchemeSpec::Counter(3))
            .hosts(20)
            .broadcasts(5)
            .seed(77)
            .build();
        let scale = Scale::Default;
        let seq_reports: Vec<SimReport> = (0..scale.repeats())
            .map(|i| {
                let mut c = config.clone();
                c.seed = config.seed.wrapping_add(i);
                World::new(c).run()
            })
            .collect();
        let seq_avg = AveragedReport::from_reports(&seq_reports);

        let mut sweep = Sweep::new(scale);
        let par_avg = sweep.run(&[config]);
        assert_eq!(par_avg, [seq_avg], "averaged report must be bit-identical");
        assert_eq!(
            sweep.into_records(),
            [metrics_record(&seq_reports)],
            "summed metrics must be bit-identical"
        );
    }

    #[test]
    fn equal_labels_keep_config_order() {
        // HELLO and oracle runs of one (scheme, map) share a sort key; the
        // records must come back in config order, not worker order.
        let nc = |info: NeighborInfo| {
            SimConfig::builder(3, SchemeSpec::NeighborCoverage)
                .hosts(20)
                .broadcasts(4)
                .seed(3)
                .neighbor_info(info)
                .build()
        };
        let hello = nc(NeighborInfo::Hello(
            manet_net::HelloIntervalPolicy::fixed_1s(),
        ));
        let mut sweep = Sweep::new(Scale::Quick);
        let _ = sweep.run(&[hello, nc(NeighborInfo::Oracle)]);
        let records = sweep.into_records();
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.scheme == "NC" && r.map == "3x3"));
        assert!(records[0].metrics.net.hello_sent > 0, "HELLO run first");
        assert_eq!(records[1].metrics.net.hello_sent, 0, "oracle run second");
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("bogus"), None);
        assert_eq!(Scale::Full.broadcasts(), 10_000);
    }
}
