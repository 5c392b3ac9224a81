//! Extension — broadcast-load sensitivity.
//!
//! The paper fixes the workload at one broadcast every 0–2 s map-wide.
//! This sweep varies the offered load: under heavier load concurrent
//! broadcasts contend with each other, so flooding's storm compounds
//! while the suppression schemes degrade far more gracefully.

use broadcast_core::{CounterThreshold, SchemeSpec, SimConfig};
use manet_sim_engine::SimDuration;

use crate::runner::{Sweep, BASE_SEED};
use crate::table::{pct, secs, Table};

/// Mean interarrival values swept, in milliseconds (uniform on [0, 2x]).
const MEAN_INTERARRIVAL_MS: [u64; 4] = [250, 500, 1_000, 2_000];

/// Runs flooding vs C=2 vs AC on the 3×3 map across offered loads.
pub fn run(sweep: &mut Sweep) -> Vec<Table> {
    let scale = sweep.scale;
    let schemes = [
        SchemeSpec::Flooding,
        SchemeSpec::Counter(2),
        SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
    ];
    let jobs: Vec<(usize, u64)> = (0..schemes.len())
        .flat_map(|s| MEAN_INTERARRIVAL_MS.iter().map(move |&m| (s, m)))
        .collect();
    let configs: Vec<SimConfig> = jobs
        .iter()
        .map(|&(s, mean_ms)| {
            SimConfig::builder(3, schemes[s].clone())
                .broadcasts(scale.broadcasts())
                .seed(BASE_SEED)
                .max_interarrival(SimDuration::from_millis(mean_ms * 2))
                .build()
        })
        .collect();
    let reports = sweep.run(&configs);

    let mut headers = vec!["mean gap (s)".to_string()];
    for scheme in &schemes {
        headers.push(format!("RE% {}", scheme.label()));
        headers.push(format!("latency(s) {}", scheme.label()));
    }
    let mut table = Table::new(
        "Extension - offered-load sweep on the 3x3 map (broadcasts per ~gap seconds)",
        headers,
    );
    for &mean_ms in &MEAN_INTERARRIVAL_MS {
        let mut row = vec![format!("{:.2}", mean_ms as f64 / 1_000.0)];
        for s in 0..schemes.len() {
            let idx = jobs
                .iter()
                .position(|&j| j == (s, mean_ms))
                .expect("job exists");
            row.push(pct(reports[idx].reachability));
            row.push(secs(reports[idx].avg_latency_s));
        }
        table.row(row);
    }
    vec![table]
}
