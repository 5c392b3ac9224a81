//! Fig. 10 — the adaptive location-based scheme (AL) against the
//! fixed-threshold location-based scheme (`A = 0.1871, 0.0469, 0.0134`,
//! the values used in \[15\]): RE and SRB (a), latency (b).

use broadcast_core::{AreaThreshold, SchemeSpec};

use crate::runner::{run_grid, Sweep, PAPER_MAPS};
use crate::table::{pct, secs, Table};

fn schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::Location(0.1871),
        SchemeSpec::Location(0.0469),
        SchemeSpec::Location(0.0134),
        SchemeSpec::AdaptiveLocation(AreaThreshold::paper_recommended()),
    ]
}

/// Regenerates Fig. 10a (RE/SRB) and Fig. 10b (latency).
pub fn run(sweep: &mut Sweep) -> Vec<Table> {
    let schemes = schemes();
    let grid = run_grid(&PAPER_MAPS, &schemes, sweep, |b| b);

    let mut headers = vec!["map".to_string()];
    for s in &schemes {
        headers.push(format!("RE% {}", s.label()));
        headers.push(format!("SRB% {}", s.label()));
    }
    let mut a = Table::new(
        "Fig. 10a - adaptive (AL) vs fixed location-based: RE and SRB",
        headers,
    );
    let mut headers_b = vec!["map".to_string()];
    headers_b.extend(schemes.iter().map(|s| format!("latency(s) {}", s.label())));
    let mut b = Table::new("Fig. 10b - average broadcast latency", headers_b);

    for (mi, &map) in PAPER_MAPS.iter().enumerate() {
        let mut row_a = vec![format!("{map}x{map}")];
        let mut row_b = vec![format!("{map}x{map}")];
        for results in &grid {
            let r = &results[mi];
            row_a.push(pct(r.reachability));
            row_a.push(pct(r.saved_rebroadcasts));
            row_b.push(secs(r.avg_latency_s));
        }
        a.row(row_a);
        b.row(row_b);
    }
    vec![a, b]
}
