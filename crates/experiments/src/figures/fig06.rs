//! Fig. 6 — the candidate threshold functions `C(n)` between `n₁ = 4` and
//! `n₂ = 12`, tabulated (the paper plots these curves; the solid/linear
//! one is the recommendation).

use broadcast_core::{CounterThreshold, DescentShape};

use crate::runner::Sweep;
use crate::table::Table;

/// Regenerates Fig. 6 as a value table for `n = 1..=16`.
pub fn run(_sweep: &mut Sweep) -> Vec<Table> {
    let shapes = [
        ("convex", DescentShape::Convex),
        ("linear (recommended)", DescentShape::Linear),
        ("concave", DescentShape::Concave),
    ];
    let functions: Vec<(&str, CounterThreshold)> = shapes
        .into_iter()
        .map(|(name, s)| (name, CounterThreshold::with_descent(4, 12, s)))
        .collect();

    let mut headers = vec!["n".to_string()];
    headers.extend(functions.iter().map(|(name, _)| format!("C(n) {name}")));
    let mut table = Table::new("Fig. 6 - candidate C(n) functions (n1=4, n2=12)", headers);
    for n in 1..=16usize {
        let mut row = vec![n.to_string()];
        for (_, f) in &functions {
            row.push(f.threshold(n).to_string());
        }
        table.row(row);
    }
    vec![table]
}
