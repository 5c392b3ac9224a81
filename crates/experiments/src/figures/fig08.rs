//! Fig. 8 — the candidate threshold functions `A(n)` for the adaptive
//! location-based scheme, tabulated.

use broadcast_core::AreaThreshold;

use crate::runner::Sweep;
use crate::table::Table;

/// The `(n₁, n₂)` pairs swept in Fig. 9, including the paper's named
/// finalists (6,12), (8,12), and (8,10).
pub fn candidate_pairs() -> Vec<(u32, u32)> {
    vec![
        (4, 10),
        (4, 12),
        (6, 10),
        (6, 12),
        (6, 14),
        (8, 10),
        (8, 12),
        (8, 14),
    ]
}

/// Regenerates Fig. 8 as a value table for `n = 1..=16`.
pub fn run(_sweep: &mut Sweep) -> Vec<Table> {
    let functions: Vec<AreaThreshold> = candidate_pairs()
        .into_iter()
        .map(|(n1, n2)| AreaThreshold::adaptive(n1, n2))
        .collect();
    let mut headers = vec!["n".to_string()];
    headers.extend(functions.iter().map(|f| f.label().to_string()));
    let mut table = Table::new(
        "Fig. 8 - candidate A(n) functions (fraction of pi r^2)",
        headers,
    );
    for n in 1..=16usize {
        let mut row = vec![n.to_string()];
        for f in &functions {
            row.push(format!("{:.4}", f.threshold(n)));
        }
        table.row(row);
    }
    vec![table]
}
