//! In-process storms: the untraced timing pass and the traced
//! per-layer pass.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use broadcast_core::trace::NoopObserver;
use broadcast_core::{
    replay_decisions, OwnedAction, PureModels, SimConfig, SimReport, TraceFile, TraceRecord, World,
};
use manet_sim_engine::SimTime;

use crate::stats::fnv1a;
use crate::workloads::StormSpec;

/// The event kinds the world loop profiles, in report order.
pub const WORLD_KINDS: [&str; 7] = [
    "mac_timer",
    "tx_end",
    "carrier_sense",
    "hello_timer",
    "assessment_done",
    "issue_broadcast",
    "mobility_turn",
];

/// The pure-model action kinds, in report order.
pub const PURE_ACTIONS: [&str; 6] = [
    "originate",
    "hello_prepare",
    "hello_heard",
    "packet_heard",
    "assessment_fired",
    "frame_sent",
];

/// Digest of everything a run reports except its wall-clock profile.
pub fn report_digest(report: &SimReport) -> u64 {
    let mut report = report.clone();
    report.profile = None;
    fnv1a(format!("{report:?}").as_bytes())
}

/// Digest of a whole storm set: the digest of its per-storm digests.
pub fn set_digest(digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// The `--metrics` document the one-shot CLI writes for this report;
/// what a campaign job streams back.
pub fn render_job(report: SimReport) -> String {
    let record = manet_experiments::metrics_record(&[report]);
    manet_experiments::render_metrics_json("single", &[("manet-sim".to_string(), vec![record])])
}

/// One timed pass over a storm set.
#[derive(Debug, Clone)]
pub struct Pass {
    /// `World::new` per storm, in set order.
    pub setup: Vec<Duration>,
    /// `run()` (the event loop plus `into_report`) per storm.
    pub run: Vec<Duration>,
    /// Report digest per storm.
    pub digests: Vec<u64>,
}

/// Runs every storm once, timing construction and run separately.
pub fn run_pass(configs: &[SimConfig]) -> Pass {
    let mut pass = Pass {
        setup: Vec::with_capacity(configs.len()),
        run: Vec::with_capacity(configs.len()),
        digests: Vec::with_capacity(configs.len()),
    };
    for cfg in configs {
        let cfg = cfg.clone();
        let t0 = Instant::now();
        let world = black_box(World::new(cfg));
        let t1 = Instant::now();
        let report = black_box(world.run());
        let t2 = Instant::now();
        pass.setup.push(t1 - t0);
        pass.run.push(t2 - t1);
        pass.digests.push(report_digest(&report));
    }
    pass
}

/// Per-layer totals of the traced pass over a storm set.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Σ untraced `run()` over the set.
    pub untraced_run_ns: u64,
    /// Σ traced event-loop wall (`advance_until`, profiling and
    /// recording on).
    pub loop_ns: u64,
    /// Σ `into_report` of the traced worlds.
    pub report_ns: u64,
    /// Loop events over the set.
    pub events: u64,
    /// Parallel epochs executed (0 on the default executor).
    pub epochs: u64,
    /// `(count, ns)` per world event kind.
    pub world: BTreeMap<String, (u64, u64)>,
    /// `(count, ns)` per pure action kind, from re-driving the trace.
    pub pure: BTreeMap<&'static str, (u64, u64)>,
    /// Effects the re-driven pure steps emitted.
    pub pure_effects: u64,
    /// Simulated data frames put on air.
    pub data_frames: u64,
    /// Simulated HELLO frames put on air.
    pub hello_frames: u64,
    /// Simulated collisions.
    pub collisions: u64,
    /// Simulated MAC backoff draws.
    pub backoff_draws: u64,
    /// Σ metrics rendering (`metrics_record` + `render_metrics_json`).
    pub render_ns: u64,
    /// Rendered metrics bytes.
    pub render_bytes: u64,
    /// Per-storm untraced report digests, in set order.
    pub digests: Vec<u64>,
    /// Per-storm rendered metrics documents, in set order.
    pub rendered: Vec<String>,
    /// Correctness problems found (empty when every gate held).
    pub errors: Vec<String>,
}

/// Runs each storm untraced, then again with the loop profiler and
/// action recording on; checks the two agree and the recording replays,
/// and re-drives the recorded actions through a fresh [`PureModels`],
/// timing each action kind. One trace is held at a time.
pub fn trace_storms(storms: &[StormSpec]) -> Traced {
    let mut t = Traced::default();
    for storm in storms {
        let (label, cfg) = (&storm.label, storm.config());
        let mut traced_cfg = cfg.clone();
        traced_cfg.profile_events = true;

        let t0 = Instant::now();
        let untraced = World::new(cfg).run();
        t.untraced_run_ns += nanos(t0.elapsed());
        let digest = report_digest(&untraced);
        t.digests.push(digest);

        let t0 = Instant::now();
        let rendered = render_job(untraced);
        t.render_ns += nanos(t0.elapsed());
        t.render_bytes += rendered.len() as u64;
        t.rendered.push(rendered);

        let mut world = World::new(traced_cfg);
        world.enable_recording();
        let t0 = Instant::now();
        world.advance_until(SimTime::MAX, &mut NoopObserver);
        t.loop_ns += nanos(t0.elapsed());
        t.epochs += world.epochs_run();
        let trace = world.take_trace().expect("recording was enabled");
        let t0 = Instant::now();
        let report = world.into_report();
        t.report_ns += nanos(t0.elapsed());

        if report_digest(&report) != digest {
            t.errors
                .push(format!("{label}: traced report differs from untraced"));
        }
        let profile = report.profile.as_ref().expect("profiling was enabled");
        t.events += profile.events;
        for kind in &profile.kinds {
            let entry = t.world.entry(kind.kind.clone()).or_default();
            entry.0 += kind.count;
            entry.1 += kind.total_ns;
        }
        t.data_frames += report.data_frames;
        t.hello_frames += report.hello_packets;
        t.collisions += report.collisions;
        t.backoff_draws += report.mac.backoff_draws;

        if let Err(err) = replay_decisions(&trace) {
            t.errors.push(format!("{label}: replay failed: {err}"));
        }
        match TraceFile::decode(&trace) {
            Ok(file) => {
                drop(trace);
                redrive(&file, &mut t);
            }
            Err(err) => t
                .errors
                .push(format!("{label}: trace decode failed: {err}")),
        }
    }
    t
}

/// Steps every recorded action through fresh pure models, timing each.
fn redrive(file: &TraceFile, t: &mut Traced) {
    let mut pure = PureModels::new(&file.config);
    let mut fx = Vec::new();
    for record in &file.records {
        let TraceRecord::Action { at, action } = record else {
            continue;
        };
        let kind = action_kind(action);
        fx.clear();
        let t0 = Instant::now();
        pure.step(*at, &action.as_action(), &mut fx);
        let ns = nanos(t0.elapsed());
        t.pure_effects += fx.len() as u64;
        if let Some(kind) = kind {
            let entry = t.pure.entry(kind).or_default();
            entry.0 += 1;
            entry.1 += ns;
        }
    }
}

/// The report name of an action kind; `None` for kinds the workloads
/// never produce (scenario deactivation).
fn action_kind(action: &OwnedAction) -> Option<&'static str> {
    Some(match action {
        OwnedAction::Originate { .. } => "originate",
        OwnedAction::HelloPrepare { .. } => "hello_prepare",
        OwnedAction::HelloHeard { .. } => "hello_heard",
        OwnedAction::PacketHeard { .. } => "packet_heard",
        OwnedAction::AssessmentFired { .. } => "assessment_fired",
        OwnedAction::FrameSent { .. } => "frame_sent",
        OwnedAction::Deactivate { .. } => return None,
    })
}

/// Whole nanoseconds of `d`, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// A short NC storm from the paper grid: HELLO beacons and 2-hop
    /// coverage checks, quick enough for a debug build.
    fn small() -> Vec<StormSpec> {
        let mut storm = Workload::StormPaper.storms(1)[2].clone();
        storm.broadcasts = 3;
        storm.scheme = "nc".into();
        vec![storm]
    }

    #[test]
    fn passes_are_deterministic() {
        let configs: Vec<SimConfig> = small().iter().map(StormSpec::config).collect();
        let a = run_pass(&configs);
        let b = run_pass(&configs);
        assert_eq!(a.digests, b.digests);
        assert!(a.run[0] > Duration::ZERO && a.setup[0] > Duration::ZERO);
    }

    #[test]
    fn attribution_closes_on_a_traced_storm() {
        let storms = small();
        let t = trace_storms(&storms);
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        let configs: Vec<SimConfig> = storms.iter().map(StormSpec::config).collect();
        assert_eq!(t.digests, run_pass(&configs).digests);
        let attributed: u64 = t.world.values().map(|&(_, ns)| ns).sum();
        assert!(attributed > 0);
        assert!(attributed <= t.loop_ns, "{attributed} > {}", t.loop_ns);
        let counted: u64 = t.world.values().map(|&(count, _)| count).sum();
        assert_eq!(counted, t.events);
        for kind in t.world.keys() {
            assert!(WORLD_KINDS.contains(&kind.as_str()), "unknown kind {kind}");
        }
        assert!(t.pure["hello_heard"].0 > 0, "HELLO mode re-drives beacons");
        assert!(t.render_bytes > 0 && t.pure_effects > 0);
    }
}
