//! Fig. 5 — tuning the threshold function `C(n)` for the adaptive
//! counter-based scheme, in the paper's four steps:
//!
//! * **(a)** the slope of the ramp before `n₁` (1/3, 1/2, 1),
//! * **(b)** the value of `n₁` (2, 3, 4, 5),
//! * **(c)** the value of `n₂` (8, 12, 16) with `n₁ = 4`,
//! * **(d)** the descent shape between `n₁` and `n₂` (Fig. 6's curves).
//!
//! Each candidate runs on all six maps; RE and SRB are reported per map.

use broadcast_core::{CounterThreshold, DescentShape, SchemeSpec};

use crate::runner::{run_grid, AveragedReport, Sweep, PAPER_MAPS};
use crate::table::{pct, Table};

/// Builds the RE/SRB table for a set of AC threshold candidates.
fn candidate_table(title: &str, candidates: Vec<CounterThreshold>, sweep: &mut Sweep) -> Table {
    let schemes: Vec<SchemeSpec> = candidates
        .iter()
        .cloned()
        .map(SchemeSpec::AdaptiveCounter)
        .collect();
    let grid = run_grid(&PAPER_MAPS, &schemes, sweep, |b| b);
    let mut headers = vec!["map".to_string()];
    for c in &candidates {
        headers.push(format!("RE% {}", c.label()));
        headers.push(format!("SRB% {}", c.label()));
    }
    let mut table = Table::new(title, headers);
    for (mi, &map) in PAPER_MAPS.iter().enumerate() {
        let mut row = vec![format!("{map}x{map}")];
        for results in &grid {
            let r: &AveragedReport = &results[mi];
            row.push(pct(r.reachability));
            row.push(pct(r.saved_rebroadcasts));
        }
        table.row(row);
    }
    table
}

/// Fig. 5a: the ramp slope before `n₁`.
pub fn run_a(sweep: &mut Sweep) -> Vec<Table> {
    vec![candidate_table(
        "Fig. 5a - C(n) ramp slope (22233344455..., 22334455..., 23455...)",
        vec![
            CounterThreshold::ramp(3),
            CounterThreshold::ramp(2),
            CounterThreshold::ramp(1),
        ],
        sweep,
    )]
}

/// Fig. 5b: choosing `n₁`.
pub fn run_b(sweep: &mut Sweep) -> Vec<Table> {
    vec![candidate_table(
        "Fig. 5b - choosing n1 (233..., 2344..., 23455..., 234566...)",
        (2..=5).map(CounterThreshold::ramp_to).collect(),
        sweep,
    )]
}

/// Fig. 5c: choosing `n₂` with `n₁ = 4`.
pub fn run_c(sweep: &mut Sweep) -> Vec<Table> {
    vec![candidate_table(
        "Fig. 5c - choosing n2 with n1=4 (linear descent)",
        [8, 12, 16]
            .into_iter()
            .map(|n2| CounterThreshold::with_descent(4, n2, DescentShape::Linear))
            .collect(),
        sweep,
    )]
}

/// Fig. 5d: the descent shape between `n₁ = 4` and `n₂ = 12`.
pub fn run_d(sweep: &mut Sweep) -> Vec<Table> {
    vec![candidate_table(
        "Fig. 5d - descent shape between n1=4 and n2=12",
        [
            DescentShape::Convex,
            DescentShape::Linear,
            DescentShape::Concave,
        ]
        .into_iter()
        .map(|s| CounterThreshold::with_descent(4, 12, s))
        .collect(),
        sweep,
    )]
}
