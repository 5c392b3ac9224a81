//! Fig. 1 — expected additional coverage `EAC(k)` after hearing the same
//! packet `k` times.

use manet_geom::expected_additional_coverage;
use manet_sim_engine::SimRng;

use crate::runner::{Scale, Sweep, BASE_SEED};
use crate::table::Table;

/// Monte-Carlo trial counts per scale.
fn trials(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 400,
        Scale::Default => 3_000,
        Scale::Full => 20_000,
    }
}

/// Regenerates Fig. 1.
pub fn run(sweep: &mut Sweep) -> Vec<Table> {
    let mut rng = SimRng::seed_from(BASE_SEED);
    let eac = expected_additional_coverage(10, trials(sweep.scale), 800, &mut rng);
    let mut table = Table::new(
        "Fig. 1 - expected additional coverage EAC(k) / pi r^2",
        vec!["k".into(), "EAC(k)".into()],
    );
    for (i, value) in eac.iter().enumerate() {
        table.row(vec![format!("{}", i + 1), format!("{value:.4}")]);
    }
    vec![table]
}
