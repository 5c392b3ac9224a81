//! Property tests pinning the [`StripIndex`] to the brute-force oracle
//! [`in_range_into`]: hosts are synced, then drift linearly at up to the
//! index's speed bound for up to two sync intervals, and every query
//! against the stale sync must return exactly the oracle's ids over the
//! fresh positions, in ascending order.

use manet_geom::Vec2;
use manet_phy::{in_range_into, NodeId, StripIndex, STRIP_SYNC_INTERVAL};
use manet_sim_engine::{SimDuration, SimTime};
use manet_testkit::{prop_check, Gen};

const RADIUS: f64 = 500.0;

/// A sync-time position on a `side`-wide square map. Mostly uniform;
/// one in eight sits on a map edge (`0`, exactly `side`) or overshoots it
/// slightly on either side, the clamping cases of the strip assignment.
fn sync_position(g: &mut Gen, side: f64) -> Vec2 {
    let axis = |g: &mut Gen| match g.u32_in(0..16) {
        0 => side,
        1 => 0.0,
        2 => -g.f64_in_incl(0.0, 1e-3),
        3 => side + g.f64_in_incl(0.0, 1e-3),
        _ => g.f64_in_incl(0.0, side),
    };
    if g.u32_in(0..8) == 0 {
        Vec2::new(axis(g), axis(g))
    } else {
        Vec2::new(g.f64_in_incl(0.0, side), g.f64_in_incl(0.0, side))
    }
}

/// A velocity no faster than `max_speed`.
fn velocity(g: &mut Gen, max_speed: f64) -> Vec2 {
    let speed = max_speed * g.f64_in_incl(0.0, 1.0);
    let heading = g.f64_in(0.0..std::f64::consts::TAU);
    Vec2::new(speed * heading.cos(), speed * heading.sin())
}

prop_check! {
    /// Maps 1–11, up to 2000 hosts, drift over 0–2 sync intervals (one
    /// case in four fast enough that the drift exceeds the radius, so no
    /// candidate is certain and every one takes the exact test).
    fn drifting_queries_match_the_oracle(g, cases = 48) {
        let map = g.u32_in(1..12);
        let side = f64::from(map) * RADIUS;
        let hosts = g.usize_in(1..2001);
        let max_speed = if g.u32_in(0..4) == 0 {
            g.f64_in_incl(260.0, 400.0)
        } else {
            g.f64_in_incl(0.0, 30.0)
        };
        let mut synced: Vec<Vec2> = (0..hosts).map(|_| sync_position(g, side)).collect();
        if hosts >= 2 {
            // Coincident hosts.
            synced[hosts - 1] = synced[0];
        }
        let sync_at = SimTime::from_millis(g.u64_in(0..60_000));
        let window = 2 * STRIP_SYNC_INTERVAL.as_nanos();
        let elapsed = SimDuration::from_nanos(g.u64_in(0..window + 1));
        let now = sync_at + elapsed;
        let dt = elapsed.as_secs_f64();
        let fresh: Vec<Vec2> = synced
            .iter()
            .map(|&p| p + velocity(g, max_speed) * dt)
            .collect();

        let mut index = StripIndex::new(side, RADIUS, max_speed);
        index.sync(sync_at, &synced);
        let mut got = Vec::new();
        let mut want = Vec::new();
        let mut evaluated = vec![false; hosts];
        for _ in 0..hosts.min(48) {
            let of = NodeId::new(g.u32_in(0..hosts as u32));
            let eval_certain = g.bool();
            evaluated.iter_mut().for_each(|e| *e = false);
            index.query_into(
                now,
                of,
                fresh[of.index()],
                eval_certain,
                |h| {
                    evaluated[h.index()] = true;
                    fresh[h.index()]
                },
                &mut got,
            );
            in_range_into(&fresh, of, RADIUS, &mut want);
            assert_eq!(got, want, "host {} at {:?}", of.index(), fresh[of.index()]);
            if eval_certain {
                assert!(
                    got.iter().all(|h| evaluated[h.index()]),
                    "a hearer's fresh position was never evaluated"
                );
            }
        }
    }

    /// Without motion the sync alone answers (drift is just the slack):
    /// every host's query matches the oracle, including hosts placed on
    /// strip boundaries and the exact right and top map edges.
    fn static_queries_on_strip_boundaries_match_the_oracle(g, cases = 64) {
        let map = g.u32_in(1..12);
        let side = f64::from(map) * RADIUS;
        let hosts = g.usize_in(1..200);
        let positions: Vec<Vec2> = (0..hosts)
            .map(|_| {
                let snap = |g: &mut Gen| {
                    if g.bool() {
                        RADIUS * f64::from(g.u32_in(0..map + 1))
                    } else {
                        g.f64_in_incl(0.0, side)
                    }
                };
                Vec2::new(snap(g), snap(g))
            })
            .collect();
        let now = SimTime::from_millis(g.u64_in(0..10_000));
        let mut index = StripIndex::new(side, RADIUS, 0.0);
        index.sync(now, &positions);
        let mut got = Vec::new();
        let mut want = Vec::new();
        for i in 0..hosts {
            let of = NodeId::new(i as u32);
            index.query_into(now, of, positions[i], false, |h| positions[h.index()], &mut got);
            in_range_into(&positions, of, RADIUS, &mut want);
            assert_eq!(got, want, "host {i}");
        }
    }
}
