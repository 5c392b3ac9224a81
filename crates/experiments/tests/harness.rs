//! Smoke tests of the experiment harness: figure registry sanity and the
//! instant (non-simulation) figures.

use manet_experiments::{all_figures, figures, Scale, Sweep};

#[test]
fn figure_ids_are_unique_and_complete() {
    let ids: Vec<&str> = all_figures().iter().map(|(id, _)| *id).collect();
    let mut deduped = ids.clone();
    deduped.sort_unstable();
    deduped.dedup();
    assert_eq!(deduped.len(), ids.len(), "duplicate figure ids");
    for required in [
        "fig1", "fig2", "fig5a", "fig5b", "fig5c", "fig5d", "fig6", "fig7", "fig8", "fig9",
        "fig10", "fig11", "fig12", "fig13",
    ] {
        assert!(ids.contains(&required), "missing paper figure {required}");
    }
}

#[test]
fn fig6_tabulates_the_recommended_function() {
    let tables = figures::fig06::run(&mut Sweep::new(Scale::Quick));
    assert_eq!(tables.len(), 1);
    let rendered = tables[0].render();
    assert!(rendered.contains("linear (recommended)"));
    // n = 4 has the ramp peak C = 5, n = 12 the floor C = 2.
    let csv = tables[0].to_csv();
    let rows: Vec<&str> = csv.lines().collect();
    assert!(rows[4].starts_with("4,") && rows[4].contains(",5,"));
    assert!(rows[12].starts_with("12,2,2,2"));
}

#[test]
fn fig8_tabulates_candidate_area_thresholds() {
    let tables = figures::fig08::run(&mut Sweep::new(Scale::Quick));
    let csv = tables[0].to_csv();
    // The ceiling 0.187 appears once n is large.
    assert!(csv.lines().last().expect("non-empty").contains("0.1870"));
    // The paper's named finalists are among the candidates.
    let header = csv.lines().next().expect("non-empty");
    for pair in ["AL(6,12)", "AL(8,12)", "AL(8,10)"] {
        assert!(header.contains(pair), "missing candidate {pair}");
    }
}

#[test]
fn fig1_eac_is_decreasing_at_quick_scale() {
    let tables = figures::fig01::run(&mut Sweep::new(Scale::Quick));
    let csv = tables[0].to_csv();
    let values: Vec<f64> = csv
        .lines()
        .skip(1)
        .map(|l| {
            l.split(',')
                .nth(1)
                .expect("two columns")
                .parse()
                .expect("a float")
        })
        .collect();
    assert_eq!(values.len(), 10);
    assert!(
        values[0] > 0.35 && values[0] < 0.47,
        "EAC(1) = {}",
        values[0]
    );
    assert!(
        values.windows(2).all(|w| w[1] <= w[0] + 0.03),
        "EAC must trend down: {values:?}"
    );
}

#[test]
fn fig2_distribution_rows_sum_to_one() {
    let tables = figures::fig02::run(&mut Sweep::new(Scale::Quick));
    let csv = tables[0].to_csv();
    for line in csv.lines().skip(1) {
        let total: f64 = line
            .split(',')
            .skip(1)
            .filter_map(|cell| cell.parse::<f64>().ok())
            .sum();
        // Rows report k = 0..=4 only, so the sum is at most 1 and close
        // to 1 for small n where higher k is impossible.
        assert!(total <= 1.0 + 1e-6, "row over 1: {line}");
    }
}
