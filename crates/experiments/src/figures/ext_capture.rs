//! Extension — physical-layer capture ablation.
//!
//! The paper assumes any overlap garbles every frame involved (§2.2.3).
//! Real DSSS radios exhibit *capture*: a sufficiently dominant frame
//! survives interference. This ablation reruns flooding and two
//! suppression schemes with a 10 dB / path-loss-4 capture model to check
//! that the paper's conclusions do not hinge on the pessimistic collision
//! model: capture softens the storm (flooding recovers some RE on dense
//! maps) but the adaptive schemes still win on saving.

use broadcast_core::{CaptureConfig, CounterThreshold, SchemeSpec, SimConfig};

use crate::runner::{Sweep, BASE_SEED, PAPER_MAPS};
use crate::table::{pct, Table};

/// Runs the capture-on/off grid.
pub fn run(sweep: &mut Sweep) -> Vec<Table> {
    let scale = sweep.scale;
    let schemes = [
        SchemeSpec::Flooding,
        SchemeSpec::Counter(2),
        SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
    ];
    let modes = [
        ("no-capture", None),
        ("capture", Some(CaptureConfig::typical())),
    ];
    let jobs: Vec<(usize, usize, u32)> = (0..schemes.len())
        .flat_map(|s| {
            (0..modes.len()).flat_map(move |m| PAPER_MAPS.iter().map(move |&map| (s, m, map)))
        })
        .collect();
    let configs: Vec<SimConfig> = jobs
        .iter()
        .map(|&(s, m, map)| {
            let mut builder = SimConfig::builder(map, schemes[s].clone())
                .broadcasts(scale.broadcasts())
                .seed(BASE_SEED);
            if let Some(capture) = modes[m].1 {
                builder = builder.capture(capture);
            }
            builder.build()
        })
        .collect();
    let reports = sweep.run(&configs);

    let mut headers = vec!["map".to_string()];
    for scheme in &schemes {
        for (mode, _) in &modes {
            headers.push(format!("RE% {} ({mode})", scheme.label()));
        }
    }
    let mut table = Table::new(
        "Extension - capture-effect ablation (10 dB SIR, path loss 4)",
        headers,
    );
    for &map in &PAPER_MAPS {
        let mut row = vec![format!("{map}x{map}")];
        for s in 0..schemes.len() {
            for m in 0..modes.len() {
                let idx = jobs
                    .iter()
                    .position(|&j| j == (s, m, map))
                    .expect("job exists");
                row.push(pct(reports[idx].reachability));
            }
        }
        table.row(row);
    }
    vec![table]
}
