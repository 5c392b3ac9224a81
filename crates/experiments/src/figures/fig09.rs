//! Fig. 9 — sweeping the `(n₁, n₂)` parameters of the adaptive
//! location-based scheme over all maps.
//!
//! The paper concludes that (6,12), (8,12) and (8,10) all deliver
//! satisfactory RE, and picks (6,12) for its better SRB on sparse maps.

use broadcast_core::{AreaThreshold, SchemeSpec};

use crate::figures::fig08::candidate_pairs;
use crate::runner::{run_grid, Sweep, PAPER_MAPS};
use crate::table::{pct, Table};

/// Regenerates Fig. 9: RE and SRB per candidate `(n₁, n₂)` per map.
pub fn run(sweep: &mut Sweep) -> Vec<Table> {
    let schemes: Vec<SchemeSpec> = candidate_pairs()
        .into_iter()
        .map(|(n1, n2)| SchemeSpec::AdaptiveLocation(AreaThreshold::adaptive(n1, n2)))
        .collect();
    let grid = run_grid(&PAPER_MAPS, &schemes, sweep, |b| b);

    let mut re = Table::new(
        "Fig. 9 - adaptive location-based: RE% per (n1,n2) candidate",
        {
            let mut h = vec!["map".to_string()];
            h.extend(schemes.iter().map(|s| s.label()));
            h
        },
    );
    let mut srb = Table::new(
        "Fig. 9 - adaptive location-based: SRB% per (n1,n2) candidate",
        {
            let mut h = vec!["map".to_string()];
            h.extend(schemes.iter().map(|s| s.label()));
            h
        },
    );
    for (mi, &map) in PAPER_MAPS.iter().enumerate() {
        let mut row_re = vec![format!("{map}x{map}")];
        let mut row_srb = vec![format!("{map}x{map}")];
        for results in &grid {
            row_re.push(pct(results[mi].reachability));
            row_srb.push(pct(results[mi].saved_rebroadcasts));
        }
        re.row(row_re);
        srb.row(row_srb);
    }
    vec![re, srb]
}
