//! Sharded-execution equivalence: running a world with `--shards N` must
//! be **bit-identical** to the sequential run — same reports, same
//! snapshot bytes — for every scheme, under churn, and across
//! checkpoint/resume at *different* shard counts. The Debug rendering of
//! [`SimReport`] covers every field, so string equality is full-report
//! equality.
//!
//! Also pins the `advance_until` pause boundary: a pause time equal to a
//! queued event's timestamp stops **strictly before** that event fires,
//! and a resume between two syncs of the range index.

use broadcast_core::trace::{NoopObserver, SimObserver, TraceEvent};
use broadcast_core::{
    AreaThreshold, ChurnKind, CounterThreshold, NeighborInfo, Scenario, SchemeSpec, SimConfig,
    World,
};
use manet_sim_engine::{SimDuration, SimTime};

/// Every scheme the paper evaluates, with its usual parameters.
fn all_schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::Flooding,
        SchemeSpec::Counter(3),
        SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
        SchemeSpec::Distance(250.0),
        SchemeSpec::Location(0.0134),
        SchemeSpec::AdaptiveLocation(AreaThreshold::paper_recommended()),
        SchemeSpec::NeighborCoverage,
    ]
}

fn config(scheme: SchemeSpec, shards: u32) -> SimConfig {
    SimConfig::builder(3, scheme)
        .hosts(40)
        .broadcasts(10)
        .seed(7)
        .shards(shards)
        .build()
}

fn report_string(config: SimConfig) -> String {
    format!("{:?}", World::new(config).run())
}

#[test]
fn every_scheme_is_bit_identical_across_shard_counts() {
    for scheme in all_schemes() {
        let sequential = report_string(config(scheme.clone(), 1));
        // 4 requested on the 3x3 map clamps to 3 strips (one radio radius
        // each) — still a genuinely sharded run.
        let sharded = report_string(config(scheme.clone(), 4));
        assert_eq!(
            sequential,
            sharded,
            "scheme {} diverged at 4 shards",
            scheme.label()
        );
    }
}

#[test]
fn oracle_neighbor_info_is_bit_identical_across_shard_counts() {
    // The oracle path answers neighbor queries from live geometry, so it
    // exercises the strip-lazy range scan on both the transmit and the
    // assessment side.
    let make = |shards: u32| {
        SimConfig::builder(
            3,
            SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
        )
        .hosts(40)
        .broadcasts(12)
        .neighbor_info(NeighborInfo::Oracle)
        .seed(11)
        .shards(shards)
        .build()
    };
    assert_eq!(report_string(make(1)), report_string(make(4)));
}

/// Counter scheme under a fault script covering every scenario feature.
fn churn_config(shards: u32) -> SimConfig {
    let scenario = Scenario::new("sharded-churn")
        .with_hosts(40)
        .churn(SimTime::from_secs(1), ChurnKind::Leave, 3)
        .churn(SimTime::from_secs(2), ChurnKind::Crash, 11)
        .churn(SimTime::from_secs(4), ChurnKind::Join, 3)
        .churn(SimTime::from_secs(6), ChurnKind::Recover, 11)
        .blackout(SimTime::from_secs(2), SimTime::from_secs(8), 5, 9)
        .noise(SimTime::from_secs(3), SimTime::from_secs(9), 0.2)
        .partition(
            SimTime::from_secs(4),
            SimTime::from_secs(10),
            broadcast_core::Region {
                x0: 0.0,
                y0: 0.0,
                x1: 700.0,
                y1: 700.0,
            },
        );
    SimConfig::builder(3, SchemeSpec::Counter(3))
        .hosts(40)
        .broadcasts(15)
        .scenario(scenario)
        .seed(9)
        .shards(shards)
        .build()
}

#[test]
fn churn_scenario_is_bit_identical_across_shard_counts() {
    assert_eq!(
        report_string(churn_config(1)),
        report_string(churn_config(4))
    );
}

#[test]
fn snapshot_bytes_are_shard_count_agnostic() {
    // The snapshot merges the shard queues back into one global stream,
    // so the byte image must not depend on the shard count at all.
    let mut sequential = World::new(churn_config(1));
    let mut sharded = World::new(churn_config(4));
    sequential.advance_until(SimTime::from_secs(5), &mut NoopObserver);
    sharded.advance_until(SimTime::from_secs(5), &mut NoopObserver);
    assert_eq!(sequential.snapshot(), sharded.snapshot());
}

#[test]
fn snapshot_resumes_across_shard_counts() {
    let baseline = report_string(churn_config(1));
    for (snap_shards, resume_shards) in [(4u32, 1u32), (1, 4)] {
        let mut world = World::new(churn_config(snap_shards));
        world.advance_until(SimTime::from_secs(5), &mut NoopObserver);
        let bytes = world.snapshot();
        drop(world);
        let resumed = World::resume(churn_config(resume_shards), &bytes).expect("snapshot resumes");
        assert_eq!(
            baseline,
            format!("{:?}", resumed.run()),
            "snapshot at {snap_shards} shards diverged resuming at {resume_shards}"
        );
    }
}

/// `advance_until(t)` pauses **strictly before** any event queued at
/// exactly `t`. The scenario schedules a churn action at exactly 1 s, so
/// pausing at 1 s and pausing one nanosecond earlier must leave the world
/// in the same state — and resuming from either checkpoint must finish
/// bit-identically to the uninterrupted run.
#[test]
fn pause_exactly_at_event_time_excludes_the_event() {
    let exactly = SimTime::from_secs(1);
    let just_before = exactly - SimDuration::from_nanos(1);

    let mut at_event = World::new(churn_config(1));
    assert!(
        !at_event.advance_until(exactly, &mut NoopObserver),
        "run must pause, not finish"
    );
    let mut before_event = World::new(churn_config(1));
    assert!(!before_event.advance_until(just_before, &mut NoopObserver));
    assert_eq!(
        at_event.snapshot(),
        before_event.snapshot(),
        "the 1 s churn action leaked into a pause at exactly 1 s"
    );

    let baseline = report_string(churn_config(1));
    let resumed = World::resume(churn_config(1), &at_event.snapshot()).expect("snapshot resumes");
    assert_eq!(baseline, format!("{:?}", resumed.run()));
}

/// Range-query instants of a run: every frame start (the listener set)
/// and every decoded frame end (the hearers' oracle neighbor views).
#[derive(Default)]
struct QueryTimes(Vec<SimTime>);

impl SimObserver for QueryTimes {
    fn event(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::FrameStarted { at, .. } => self.0.push(*at),
            TraceEvent::FrameFinished { at, decoded, .. } if *decoded > 0 => self.0.push(*at),
            _ => {}
        }
    }
}

/// The default executor's strip index syncs lazily, on the first range
/// query one sync interval after the previous sync. A checkpoint taken
/// mid-interval — here the first query at least 0.4 s after a sync, with
/// the next sync still ahead — must resume byte-identically: the resumed
/// world drops every sync it inherited and re-syncs on its first query.
#[test]
fn resume_between_index_syncs_matches_the_uninterrupted_run() {
    let make = || {
        SimConfig::builder(
            8,
            SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
        )
        .hosts(1000)
        .broadcasts(6)
        .max_interarrival(SimDuration::from_millis(500))
        .neighbor_info(NeighborInfo::Oracle)
        .seed(23)
        .build()
    };
    let mut queries = QueryTimes::default();
    let baseline = format!("{:?}", World::new(make()).run_observed(&mut queries));

    // Replay the lazy sync rule over the query instants and pause on the
    // first query 0.4 s into a sync interval.
    let interval = manet_phy::STRIP_SYNC_INTERVAL;
    let mut synced_at: Option<SimTime> = None;
    let mut pause_at = None;
    for &at in &queries.0 {
        match synced_at {
            Some(sync) if at < sync + interval => {
                if at >= sync + SimDuration::from_millis(400) {
                    pause_at = Some(at);
                    break;
                }
            }
            _ => synced_at = Some(at),
        }
    }
    let pause_at = pause_at.expect("some range query lands 0.4 s into a sync interval");

    let mut world = World::new(make());
    assert!(!world.advance_until(pause_at, &mut NoopObserver));
    let resumed = World::resume(make(), &world.snapshot()).expect("snapshot resumes");
    assert_eq!(baseline, format!("{:?}", resumed.run()));
}
