//! Fig. 2 — contention analysis: the probability `cf(n, k)` that exactly
//! `k` of `n` receivers experience no contention.

use manet_geom::contention_free_distribution;
use manet_sim_engine::SimRng;

use crate::runner::{Scale, Sweep, BASE_SEED};
use crate::table::Table;

fn trials(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 2_000,
        Scale::Default => 20_000,
        Scale::Full => 200_000,
    }
}

/// Regenerates Fig. 2 for `n = 1..=10`, reporting `k = 0..=4`.
pub fn run(sweep: &mut Sweep) -> Vec<Table> {
    let mut rng = SimRng::seed_from(BASE_SEED + 2);
    let mut table = Table::new(
        "Fig. 2 - probability of k contention-free hosts among n receivers",
        vec![
            "n".into(),
            "cf(n,0)".into(),
            "cf(n,1)".into(),
            "cf(n,2)".into(),
            "cf(n,3)".into(),
            "cf(n,4)".into(),
        ],
    );
    for n in 1..=10usize {
        let dist = contention_free_distribution(n, trials(sweep.scale), &mut rng);
        let cell = |k: usize| dist.get(k).map_or("-".to_string(), |p| format!("{p:.4}"));
        table.row(vec![
            n.to_string(),
            cell(0),
            cell(1),
            cell(2),
            cell(3),
            cell(4),
        ]);
    }
    vec![table]
}
