//! Extension — how much does imperfect (HELLO-derived) neighbor knowledge
//! cost the adaptive schemes, relative to a geometric oracle?
//!
//! The paper runs everything over real HELLO beacons. This ablation
//! quantifies the gap: the oracle bound shows how much of any RE loss is
//! due to stale tables rather than to the scheme's decision rule.

use broadcast_core::{AreaThreshold, CounterThreshold, NeighborInfo, SchemeSpec, SimConfig};

use crate::runner::{Sweep, BASE_SEED, PAPER_MAPS};
use crate::table::{pct, Table};

/// Runs AC, AL, and NC under oracle and HELLO neighbor information.
pub fn run(sweep: &mut Sweep) -> Vec<Table> {
    let scale = sweep.scale;
    let schemes = [
        SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
        SchemeSpec::AdaptiveLocation(AreaThreshold::paper_recommended()),
        SchemeSpec::NeighborCoverage,
    ];
    let infos = [
        (
            "hello",
            NeighborInfo::Hello(manet_net::HelloIntervalPolicy::fixed_1s()),
        ),
        ("oracle", NeighborInfo::Oracle),
    ];
    let jobs: Vec<(usize, usize, u32)> = (0..schemes.len())
        .flat_map(|s| {
            (0..infos.len()).flat_map(move |i| PAPER_MAPS.iter().map(move |&m| (s, i, m)))
        })
        .collect();
    let configs: Vec<SimConfig> = jobs
        .iter()
        .map(|&(s, i, map)| {
            SimConfig::builder(map, schemes[s].clone())
                .broadcasts(scale.broadcasts())
                .seed(BASE_SEED)
                .neighbor_info(infos[i].1.clone())
                .build()
        })
        .collect();
    let reports = sweep.run(&configs);

    let mut headers = vec!["map".to_string()];
    for scheme in &schemes {
        for (info_name, _) in &infos {
            headers.push(format!("RE% {} ({info_name})", scheme.label()));
        }
    }
    let mut table = Table::new(
        "Extension - oracle vs HELLO neighbor knowledge (reachability)",
        headers,
    );
    for &map in &PAPER_MAPS {
        let mut row = vec![format!("{map}x{map}")];
        for s in 0..schemes.len() {
            for i in 0..infos.len() {
                let idx = jobs
                    .iter()
                    .position(|&j| j == (s, i, map))
                    .expect("job exists");
                row.push(pct(reports[idx].reachability));
            }
        }
        table.row(row);
    }
    vec![table]
}
