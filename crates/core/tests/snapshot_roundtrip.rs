//! Checkpoint/resume correctness: a world paused mid-run, snapshotted to
//! bytes, and resumed in a fresh process image must finish **bit-identically**
//! to the same world never having paused. The Debug rendering of
//! [`SimReport`] covers every field (per-broadcast outcomes, MAC and loss
//! counters, suppression tallies, scenario counts), so string equality is
//! full-report equality.
//!
//! Also pins the bytes themselves (snapshot and `MTRC` trace of the churn
//! run), the `advance_until` pause boundary (a pause time equal to a
//! queued event's timestamp stops **strictly before** that event fires),
//! and a resume between two syncs of the range index.

use broadcast_core::trace::{NoopObserver, SimObserver, TraceEvent};
use broadcast_core::{
    ChurnKind, CounterThreshold, NeighborInfo, Scenario, SchemeSpec, SimConfig, SimReport, World,
};
use manet_sim_engine::{SimDuration, SimTime};

/// Adaptive counter: exercises HELLOs, neighbor tables, and variation
/// trackers alongside the per-packet counter state.
fn adaptive_config(seed: u64) -> SimConfig {
    SimConfig::builder(
        3,
        SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
    )
    .hosts(40)
    .broadcasts(15)
    .seed(seed)
    .build()
}

/// Neighbor coverage: exercises two-hop HELLO payloads and pending sets.
fn coverage_config(seed: u64) -> SimConfig {
    SimConfig::builder(3, SchemeSpec::NeighborCoverage)
        .hosts(40)
        .broadcasts(15)
        .seed(seed)
        .build()
}

/// Counter scheme under a fault script covering every scenario feature:
/// leave/join, crash/recover, a blackout, a noise window, a partition.
fn churn_config(seed: u64) -> SimConfig {
    let scenario = Scenario::new("snapshot-churn")
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
        .seed(seed)
        .build()
}

/// Runs `config` uninterrupted, then again with a pause + snapshot +
/// resume at `pause`, asserting identical reports.
fn assert_roundtrip(make: impl Fn() -> SimConfig, pause: SimTime) {
    let baseline: SimReport = World::new(make()).run();

    let mut world = World::new(make());
    world.advance_until(pause, &mut NoopObserver);
    let bytes = world.snapshot();
    drop(world); // the resumed world must not share anything with it

    let resumed = World::resume(make(), &bytes).expect("snapshot resumes");
    let report = resumed.run();
    assert_eq!(
        format!("{baseline:?}"),
        format!("{report:?}"),
        "resume at {pause} diverged from the uninterrupted run",
    );
}

#[test]
fn adaptive_counter_roundtrip_is_bit_identical() {
    for secs in [1, 5, 20] {
        assert_roundtrip(|| adaptive_config(7), SimTime::from_secs(secs));
    }
}

#[test]
fn neighbor_coverage_roundtrip_is_bit_identical() {
    for secs in [2, 9] {
        assert_roundtrip(|| coverage_config(21), SimTime::from_secs(secs));
    }
}

#[test]
fn churn_scenario_roundtrip_is_bit_identical() {
    // Pause times straddle the scripted faults: mid-blackout, mid-noise,
    // and after everything healed.
    for secs in [3, 7, 12] {
        assert_roundtrip(|| churn_config(9), SimTime::from_secs(secs));
    }
}

#[test]
fn oracle_mode_roundtrip_is_bit_identical() {
    let make = || {
        SimConfig::builder(
            3,
            SchemeSpec::AdaptiveCounter(CounterThreshold::paper_recommended()),
        )
        .hosts(30)
        .broadcasts(10)
        .neighbor_info(NeighborInfo::Oracle)
        .seed(4)
        .build()
    };
    assert_roundtrip(make, SimTime::from_secs(4));
}

/// Snapshotting is a pure function of world state: re-snapshotting a
/// just-resumed world reproduces the byte stream exactly.
#[test]
fn snapshot_of_resumed_world_is_byte_identical() {
    let mut world = World::new(churn_config(9));
    world.advance_until(SimTime::from_secs(5), &mut NoopObserver);
    let bytes = world.snapshot();
    let resumed = World::resume(churn_config(9), &bytes).expect("snapshot resumes");
    assert_eq!(bytes, resumed.snapshot());
}

#[test]
fn resume_rejects_a_different_config() {
    let mut world = World::new(adaptive_config(7));
    world.advance_until(SimTime::from_secs(2), &mut NoopObserver);
    let bytes = world.snapshot();
    let err = World::resume(adaptive_config(8), &bytes).expect_err("seed differs");
    assert!(err.to_string().contains("different config"), "{err}");
}

#[test]
fn resume_rejects_truncated_bytes() {
    let mut world = World::new(adaptive_config(7));
    world.advance_until(SimTime::from_secs(2), &mut NoopObserver);
    let bytes = world.snapshot();
    for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            World::resume(adaptive_config(7), &bytes[..cut]).is_err(),
            "accepted a snapshot truncated to {cut} bytes",
        );
    }
}

/// A finished world snapshots and resumes too (the trivial fixpoint).
#[test]
fn finished_world_roundtrips() {
    let mut world = World::new(adaptive_config(7));
    world.advance_until(SimTime::MAX, &mut NoopObserver);
    let bytes = world.snapshot();
    let baseline = world.into_report();
    let resumed = World::resume(adaptive_config(7), &bytes).expect("snapshot resumes");
    let report = resumed.run();
    assert_eq!(format!("{baseline:?}"), format!("{report:?}"));
}

fn report_string(config: SimConfig) -> String {
    format!("{:?}", World::new(config).run())
}

/// FNV-1a 64-bit: tiny, dependency-free, and stable across platforms.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64 of the churn run's snapshot at 6 s (queue image, sequence
/// counters, every RNG stream and model) and of its full `MTRC` trace.
/// Both were recorded before the epoch-parallel executor was removed; a
/// mismatch means the event loop's byte stream moved. If a change
/// moves it on purpose, recompute both digests with this config and
/// update the pins in that commit.
const PINNED_CHURN_SNAPSHOT_AT_6S: u64 = 0xaaa3_c7f3_12c5_abba;
const PINNED_CHURN_TRACE: u64 = 0x3afa_39d0_4048_b378;

#[test]
fn churn_snapshot_and_trace_match_their_pinned_digests() {
    let mut world = World::new(churn_config(9));
    assert!(!world.advance_until(SimTime::from_secs(6), &mut NoopObserver));
    let snapshot = fnv1a64(&world.snapshot());
    assert_eq!(
        snapshot, PINNED_CHURN_SNAPSHOT_AT_6S,
        "churn snapshot at 6 s drifted (got {snapshot:#018x})"
    );

    let mut world = World::new(churn_config(9));
    world.enable_recording();
    world.advance_until(SimTime::MAX, &mut NoopObserver);
    let trace = fnv1a64(&world.take_trace().expect("recording was armed"));
    assert_eq!(
        trace, PINNED_CHURN_TRACE,
        "churn trace drifted (got {trace:#018x})"
    );
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

    let mut at_event = World::new(churn_config(9));
    assert!(
        !at_event.advance_until(exactly, &mut NoopObserver),
        "run must pause, not finish"
    );
    let mut before_event = World::new(churn_config(9));
    assert!(!before_event.advance_until(just_before, &mut NoopObserver));
    assert_eq!(
        at_event.snapshot(),
        before_event.snapshot(),
        "the 1 s churn action leaked into a pause at exactly 1 s"
    );

    let baseline = report_string(churn_config(9));
    let resumed = World::resume(churn_config(9), &at_event.snapshot()).expect("snapshot resumes");
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

/// The world's strip index syncs lazily, on the first range
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
