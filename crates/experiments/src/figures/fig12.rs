//! Fig. 12 — the neighbor-coverage scheme with the **dynamic hello
//! interval** (NC-DHI: `nv_max = 0.02`, `hi ∈ [1, 10] s`) at various host
//! speeds on all maps: RE and SRB (a) and the number of HELLO packets
//! sent (b).
//!
//! Expectation from the paper: RE stays high independent of speed and
//! density; sparse maps churn more, so hosts beacon near `hi_min` (many
//! hellos), while the quiet 1×1 map settles near `hi_max` (few hellos).

use broadcast_core::{NeighborInfo, SchemeSpec, SimConfig};
use manet_net::{DynamicHelloParams, HelloIntervalPolicy};
use manet_sim_engine::SimDuration;

use crate::runner::{Sweep, BASE_SEED, PAPER_MAPS};
use crate::table::{pct, Table};

const SPEEDS_KMH: [f64; 4] = [20.0, 40.0, 60.0, 80.0];

/// Regenerates Fig. 12a/12b.
pub fn run(sweep: &mut Sweep) -> Vec<Table> {
    let scale = sweep.scale;
    let jobs: Vec<(u32, f64)> = PAPER_MAPS
        .iter()
        .flat_map(|&m| SPEEDS_KMH.iter().map(move |&v| (m, v)))
        .collect();
    let configs: Vec<SimConfig> = jobs
        .iter()
        .map(|&(map, speed)| {
            SimConfig::builder(map, SchemeSpec::NeighborCoverage)
                .broadcasts(scale.broadcasts())
                .seed(BASE_SEED)
                .max_speed_kmh(speed)
                .neighbor_info(NeighborInfo::Hello(HelloIntervalPolicy::Dynamic(
                    DynamicHelloParams::paper(),
                )))
                .warmup(SimDuration::from_secs(12))
                .build()
        })
        .collect();
    let reports = sweep.run(&configs);
    let report = |map: u32, speed: f64| {
        let idx = jobs
            .iter()
            .position(|&j| j == (map, speed))
            .expect("job exists");
        &reports[idx]
    };

    let mut headers_a = vec!["map".to_string()];
    for &v in &SPEEDS_KMH {
        headers_a.push(format!("RE% v={v:.0}"));
        headers_a.push(format!("SRB% v={v:.0}"));
    }
    let mut a = Table::new(
        "Fig. 12a - NC with dynamic hello interval: RE and SRB vs speed",
        headers_a,
    );
    let mut headers_b = vec!["map".to_string()];
    headers_b.extend(SPEEDS_KMH.iter().map(|v| format!("hellos/host/s v={v:.0}")));
    let mut b = Table::new(
        "Fig. 12b - NC-DHI hello traffic (hello packets per host per second)",
        headers_b,
    );

    for &map in &PAPER_MAPS {
        let mut row_a = vec![format!("{map}x{map}")];
        let mut row_b = vec![format!("{map}x{map}")];
        for &v in &SPEEDS_KMH {
            let r = report(map, v);
            row_a.push(pct(r.reachability));
            row_a.push(pct(r.saved_rebroadcasts));
            let rate = if r.sim_seconds > 0.0 {
                r.hello_packets / (100.0 * r.sim_seconds)
            } else {
                0.0
            };
            row_b.push(format!("{rate:.3}"));
        }
        a.row(row_a);
        b.row(row_b);
    }
    vec![a, b]
}
