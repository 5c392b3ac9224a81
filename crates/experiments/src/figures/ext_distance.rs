//! Extension — the distance-based scheme of \[15\] alongside the paper's
//! adaptive schemes.
//!
//! The paper reviews the distance-based scheme but does not carry it into
//! the adaptive comparison. This extension table shows where it falls:
//! like the other fixed-threshold schemes, a distance threshold tuned for
//! dense maps (large `D`) surrenders reachability on sparse ones.

use broadcast_core::{AreaThreshold, CounterThreshold, SchemeSpec};

use crate::runner::{run_grid, Sweep, PAPER_MAPS};
use crate::table::{pct, Table};

/// Runs distance-based baselines against AC/AL on every map.
pub fn run(sweep: &mut Sweep) -> Vec<Table> {
    let schemes = vec![
        SchemeSpec::Distance(100.0),
        SchemeSpec::Distance(250.0),
        SchemeSpec::Distance(400.0),
        SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
        SchemeSpec::AdaptiveLocation(AreaThreshold::paper_recommended()),
    ];
    let grid = run_grid(&PAPER_MAPS, &schemes, sweep, |b| b);
    let mut headers = vec!["map".to_string()];
    for s in &schemes {
        headers.push(format!("RE% {}", s.label()));
        headers.push(format!("SRB% {}", s.label()));
    }
    let mut table = Table::new(
        "Extension - distance-based baselines (D meters) vs adaptive schemes",
        headers,
    );
    for (mi, &map) in PAPER_MAPS.iter().enumerate() {
        let mut row = vec![format!("{map}x{map}")];
        for results in &grid {
            row.push(pct(results[mi].reachability));
            row.push(pct(results[mi].saved_rebroadcasts));
        }
        table.row(row);
    }
    vec![table]
}
