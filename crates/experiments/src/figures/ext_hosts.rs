//! Extension — host-count (density) sweep.
//!
//! The paper fixes 100 hosts and varies the map. This sweep holds the
//! 5×5 map and scales the population 100 → 300 → 1000, an order of
//! magnitude past the paper: average neighbor counts climb from ~12 to
//! ~125, so the fixed-threshold counter scheme saturates (everyone hears
//! C copies almost immediately) while the adaptive and neighbor-coverage
//! schemes keep suppressing harder as density grows. Flooding is omitted:
//! at 1000 hosts its storm makes runs quadratically slow without adding
//! information.

use broadcast_core::{CounterThreshold, SchemeSpec, SimConfig};

use crate::runner::{Sweep, BASE_SEED};
use crate::table::{pct, secs, Table};

/// Host populations swept on the 5×5 map.
const HOSTS: [u32; 3] = [100, 300, 1_000];

/// Runs C=3 vs AC vs NC on the 5x5 map across host populations.
pub fn run(sweep: &mut Sweep) -> Vec<Table> {
    let scale = sweep.scale;
    let schemes = [
        SchemeSpec::Counter(3),
        SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
        SchemeSpec::NeighborCoverage,
    ];
    let jobs: Vec<(usize, u32)> = (0..schemes.len())
        .flat_map(|s| HOSTS.iter().map(move |&h| (s, h)))
        .collect();
    let configs: Vec<SimConfig> = jobs
        .iter()
        .map(|&(s, hosts)| {
            SimConfig::builder(5, schemes[s].clone())
                .hosts(hosts)
                .broadcasts(scale.broadcasts())
                .seed(BASE_SEED)
                .build()
        })
        .collect();
    let reports = sweep.run(&configs);

    let mut headers = vec!["hosts".to_string()];
    for scheme in &schemes {
        headers.push(format!("RE% {}", scheme.label()));
        headers.push(format!("SRB% {}", scheme.label()));
        headers.push(format!("latency(s) {}", scheme.label()));
    }
    let mut table = Table::new("Extension - host-count sweep on the 5x5 map", headers);
    for &hosts in &HOSTS {
        let mut row = vec![hosts.to_string()];
        for s in 0..schemes.len() {
            let idx = jobs
                .iter()
                .position(|&j| j == (s, hosts))
                .expect("job exists");
            row.push(pct(reports[idx].reachability));
            row.push(pct(reports[idx].saved_rebroadcasts));
            row.push(secs(reports[idx].avg_latency_s));
        }
        table.row(row);
    }
    vec![table]
}
