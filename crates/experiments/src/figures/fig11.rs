//! Fig. 11 — the neighbor-coverage scheme under different **fixed** hello
//! intervals (1, 5, 10, 20, 30 s) and host speeds (20–80 km/h) on the
//! 5×5, 7×7, 9×9 and 11×11 maps.
//!
//! Expectation from the paper: on sparser maps, long hello intervals make
//! neighbor knowledge stale and RE degrades, the more so the faster the
//! hosts move.

use broadcast_core::{NeighborInfo, SchemeSpec, SimConfig};
use manet_net::HelloIntervalPolicy;
use manet_sim_engine::SimDuration;

use crate::runner::{Sweep, BASE_SEED};
use crate::table::{pct, Table};

const INTERVALS_MS: [u64; 5] = [1_000, 5_000, 10_000, 20_000, 30_000];
const SPEEDS_KMH: [f64; 4] = [20.0, 40.0, 60.0, 80.0];
const MAPS: [u32; 4] = [5, 7, 9, 11];

/// Regenerates Fig. 11: one RE table per map, rows = speed, columns =
/// hello interval.
pub fn run(sweep: &mut Sweep) -> Vec<Table> {
    let scale = sweep.scale;
    // Flatten (map, speed, interval) into one parallel batch.
    let jobs: Vec<(u32, f64, u64)> = MAPS
        .iter()
        .flat_map(|&m| {
            SPEEDS_KMH
                .iter()
                .flat_map(move |&v| INTERVALS_MS.iter().map(move |&hi| (m, v, hi)))
        })
        .collect();
    let configs: Vec<SimConfig> = jobs
        .iter()
        .map(|&(map, speed, hi)| {
            SimConfig::builder(map, SchemeSpec::NeighborCoverage)
                .broadcasts(scale.broadcasts())
                .seed(BASE_SEED)
                .max_speed_kmh(speed)
                .neighbor_info(NeighborInfo::Hello(HelloIntervalPolicy::Fixed(
                    SimDuration::from_millis(hi),
                )))
                // Give slow beacons a chance to fill tables before measuring.
                .warmup(SimDuration::from_millis(2 * hi))
                .build()
        })
        .collect();
    let reports = sweep.run(&configs);

    let mut tables = Vec::new();
    for &map in &MAPS {
        let mut headers = vec!["speed km/h".to_string()];
        headers.extend(
            INTERVALS_MS
                .iter()
                .map(|hi| format!("RE% hi={}s", hi / 1000)),
        );
        let mut table = Table::new(
            format!("Fig. 11 - NC reachability vs hello interval, {map}x{map} map"),
            headers,
        );
        for &speed in &SPEEDS_KMH {
            let mut row = vec![format!("{speed:.0}")];
            for &hi in &INTERVALS_MS {
                let idx = jobs
                    .iter()
                    .position(|&j| j == (map, speed, hi))
                    .expect("job exists");
                row.push(pct(reports[idx].reachability));
            }
            table.row(row);
        }
        tables.push(table);
    }
    tables
}
