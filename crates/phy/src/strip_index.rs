//! The exact unit-disk range index the world answers "who hears whom"
//! with.
//!
//! A [`StripIndex`] buckets hosts into vertical strips one radio radius
//! wide, each sorted by y, from a position snapshot taken at a *sync*.
//! Between syncs the buckets are read-only; hosts keep moving, but none
//! faster than the index's speed bound, so a query at `now` only has to
//! widen its window by the drift `max_speed × (now − sync)`. Syncing is
//! lazy: the index does no work until the first query finds it
//! [due](StripIndex::sync_due), and a sync stays usable for
//! [`STRIP_SYNC_INTERVAL`] of simulated time.
//!
//! # The drift window
//!
//! A host within `radius` of the query center now sat, at the sync,
//! within `radius + drift` of that same center (it moved at most `drift`
//! since; `DRIFT_SLACK` absorbs the rounding of that product). So a
//! coarse test against the sync positions keeps every host that could be
//! in range, and the same inflated window bounds which strips — and which
//! y-slice of each strip — can hold candidates. By the same bound, a
//! candidate within `radius − drift` at the sync cannot have left the
//! disc since, so its membership is already decided; only the annulus of
//! uncertainty needs a fresh position for the exact test. Fresh
//! positions go through the same squared-distance comparison as
//! [`in_range_into`](crate::in_range_into), so the answer is that
//! function's answer over a full fresh snapshot: the same ids, ascending.

use manet_geom::Vec2;
use manet_sim_engine::{SimDuration, SimTime};

use crate::id::NodeId;

/// How long one sync stays usable. Past it the index asks to be synced
/// again ([`StripIndex::sync_due`]); queries stay exact either way, a
/// stale sync only widens their candidate windows.
pub const STRIP_SYNC_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Absolute slack (meters) added to the `max_speed × elapsed` drift
/// bound, absorbing the floating-point rounding of that product.
/// Overestimating drift only widens the candidate window — the exact
/// distance test still decides membership — so a micrometer of safety
/// costs nothing and removes any 1-ulp exclusion hazard.
const DRIFT_SLACK: f64 = 1e-6;

/// The map's x-axis cut into as many equal-width vertical strips as fit
/// with every strip at least one radio radius wide (at least one strip).
/// A host's one-hop disc therefore spans at most three strips.
///
/// Strip assignment mirrors [`NeighborGrid`](crate::NeighborGrid) cell
/// clamping exactly: coordinates at or past the right map edge (including
/// `x == width` when `width` is an exact multiple of the strip width)
/// bin into the **last** strip, and coordinates at or below zero into
/// strip 0. Hosts that momentarily overshoot the map are therefore owned
/// by the border strips, not lost.
#[derive(Debug)]
struct Strips {
    strip_width: f64,
    count: usize,
}

impl Strips {
    /// The widest partition of a `width`-wide map into strips at least
    /// `radius` wide.
    ///
    /// # Panics
    ///
    /// Panics unless `width` and `radius` are finite and positive.
    fn new(width: f64, radius: f64) -> Self {
        assert!(
            width.is_finite() && width > 0.0,
            "map width must be positive and finite"
        );
        assert!(
            radius.is_finite() && radius > 0.0,
            "radio radius must be positive and finite"
        );
        let count = (width / radius).floor().max(1.0) as usize;
        Strips {
            strip_width: width / count as f64,
            count,
        }
    }

    /// The strip owning x-coordinate `x`, clamped into `0..count`.
    fn strip_of_x(&self, x: f64) -> usize {
        let idx = (x / self.strip_width).floor();
        if idx <= 0.0 {
            0
        } else {
            (idx as usize).min(self.count - 1)
        }
    }

    /// Inclusive range `(first, last)` of strips whose x-extent intersects
    /// the closed interval `[lo, hi]`. The interval may extend past the
    /// map; it is clamped into the border strips.
    fn overlapping(&self, lo: f64, hi: f64) -> (usize, usize) {
        debug_assert!(lo <= hi, "inverted interval");
        (self.strip_of_x(lo), self.strip_of_x(hi))
    }
}

/// Exact strip-bucketed range index over moving hosts.
///
/// # Examples
///
/// ```
/// use manet_geom::Vec2;
/// use manet_phy::{NodeId, StripIndex};
/// use manet_sim_engine::SimTime;
///
/// let synced = [Vec2::new(100.0, 100.0), Vec2::new(598.0, 100.0), Vec2::new(1400.0, 100.0)];
/// let mut index = StripIndex::new(1500.0, 500.0, 10.0);
/// assert!(index.sync_due(SimTime::ZERO));
/// index.sync(SimTime::ZERO, &synced);
/// let mut heard = Vec::new();
/// index.query_into(SimTime::ZERO, NodeId::new(0), synced[0], false, |h| synced[h.index()], &mut heard);
/// assert_eq!(heard, vec![NodeId::new(1)]);
///
/// // Half a second later host 1 has moved 4 m east, out of range.
/// let fresh = [synced[0], Vec2::new(602.0, 100.0), synced[2]];
/// let now = SimTime::from_millis(500);
/// index.query_into(now, NodeId::new(0), fresh[0], false, |h| fresh[h.index()], &mut heard);
/// assert!(heard.is_empty());
/// ```
#[derive(Debug)]
pub struct StripIndex {
    /// The widest feasible partition: strips one radius wide (or wider).
    strips: Strips,
    radius: f64,
    /// Speed bound (m/s) of every indexed host.
    max_speed: f64,
    /// Each strip's hosts as `(sync position, id)`, sorted by the
    /// position's y (ties by id), as of the last sync.
    hosts: Vec<Vec<(Vec2, u32)>>,
    /// Host-id-indexed hit bitmap: a query marks ids here, then a word
    /// sweep reads them back in ascending-id order without a sort.
    /// All-zero between queries.
    hits: Vec<u64>,
    /// When the buckets were last rebuilt; `None` until the first sync
    /// and after [`invalidate`](Self::invalidate).
    synced_at: Option<SimTime>,
}

impl StripIndex {
    /// An empty, unsynced index for a map `width` wide, radio `radius`,
    /// and hosts never faster than `max_speed` m/s. That bound must hold
    /// for the positions the caller reports, which it does for motion
    /// clamped to the map: clamping to a rectangle never lengthens a
    /// displacement. Allocates one empty bucket per strip and nothing per
    /// host.
    ///
    /// # Panics
    ///
    /// Panics unless `width` and `radius` are finite and positive and
    /// `max_speed` is finite and non-negative.
    pub fn new(width: f64, radius: f64, max_speed: f64) -> Self {
        assert!(
            max_speed.is_finite() && max_speed >= 0.0,
            "speed bound must be finite and non-negative"
        );
        let strips = Strips::new(width, radius);
        StripIndex {
            hosts: vec![Vec::new(); strips.count],
            strips,
            radius,
            max_speed,
            hits: Vec::new(),
            synced_at: None,
        }
    }

    /// `true` when a query at `now` should [`sync`](Self::sync) first:
    /// the index was never synced, was invalidated, or its last sync is
    /// [`STRIP_SYNC_INTERVAL`] old.
    pub fn sync_due(&self, now: SimTime) -> bool {
        self.synced_at
            .is_none_or(|at| now >= at + STRIP_SYNC_INTERVAL)
    }

    /// Forgets the last sync, so the next query must sync first (for
    /// example after the indexed trajectories were replaced wholesale).
    pub fn invalidate(&mut self) {
        self.synced_at = None;
    }

    /// Rebuilds the buckets from `positions`, every host's position at
    /// `now`. Bucket capacity is reused across syncs.
    pub fn sync(&mut self, now: SimTime, positions: &[Vec2]) {
        for bucket in &mut self.hosts {
            bucket.clear();
        }
        for (i, &p) in positions.iter().enumerate() {
            self.hosts[self.strips.strip_of_x(p.x)].push((p, i as u32));
        }
        for bucket in &mut self.hosts {
            bucket.sort_unstable_by(|a, b| a.0.y.total_cmp(&b.0.y).then(a.1.cmp(&b.1)));
        }
        self.hits.resize(positions.len().div_ceil(64), 0);
        self.synced_at = Some(now);
    }

    /// Writes every host within the radius of `center` — host `of`'s
    /// position at `now` — into `out` in ascending id order, excluding
    /// `of` itself. `out` is cleared first.
    ///
    /// `position_now(h)` must return host `h`'s position at `now`; it is
    /// called for every candidate whose membership the drift window
    /// leaves open, and — when `eval_certain` is set — also for the
    /// candidates that are certainly in range, for callers that read the
    /// hearers' fresh positions afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the index was never synced (or was invalidated).
    #[cfg_attr(simlint, hot_path)]
    pub fn query_into(
        &mut self,
        now: SimTime,
        of: NodeId,
        center: Vec2,
        eval_certain: bool,
        mut position_now: impl FnMut(NodeId) -> Vec2,
        out: &mut Vec<NodeId>,
    ) {
        let synced_at = self.synced_at.expect("range query on an unsynced index");
        let radius = self.radius;
        let drift =
            self.max_speed * now.saturating_duration_since(synced_at).as_secs_f64() + DRIFT_SLACK;
        let reach = radius + drift;
        let (lo, hi) = self.strips.overlapping(center.x - reach, center.x + reach);
        out.clear();
        let m2 = reach * reach;
        let r2 = radius * radius;
        // Inside this radius at the sync, a host cannot have left the
        // disc since (negative sentinel when drift swallows the radius:
        // nothing is certain, every candidate takes the exact test).
        let inner = radius - drift;
        let inner2 = if inner > 0.0 { inner * inner } else { -1.0 };
        let me = of.index() as u32;
        let lo_y = center.y - reach;
        let hi_y = center.y + reach;
        for bucket in &self.hosts[lo..=hi] {
            let start = bucket.partition_point(|&(p, _)| p.y < lo_y);
            for &(sync_pos, h) in &bucket[start..] {
                if sync_pos.y > hi_y {
                    break;
                }
                if h == me {
                    continue;
                }
                let d2 = sync_pos.distance_squared_to(center);
                if d2 > m2 {
                    continue;
                }
                if d2 > inner2 {
                    if position_now(NodeId::new(h)).distance_squared_to(center) > r2 {
                        continue;
                    }
                } else if eval_certain {
                    position_now(NodeId::new(h));
                }
                self.hits[(h >> 6) as usize] |= 1u64 << (h & 63);
            }
        }
        // Hits land in spatial order; the id-indexed bitmap reads them
        // back ascending. Words are zeroed as they are consumed, keeping
        // the map clean for the next query.
        for (w, word) in self.hits.iter_mut().enumerate() {
            let mut bits = *word;
            if bits == 0 {
                continue;
            }
            *word = 0;
            let base = (w as u32) << 6;
            while bits != 0 {
                out.push(NodeId::new(base + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_count_is_the_widest_feasible_partition() {
        assert_eq!(Strips::new(2_500.0, 500.0).count, 5);
        assert_eq!(Strips::new(2_999.0, 500.0).count, 5);
        assert_eq!(Strips::new(400.0, 500.0).count, 1);
        for &(w, r) in &[(2_500.0, 500.0), (5_000.0, 500.0), (1_234.5, 300.0)] {
            let strips = Strips::new(w, r);
            assert!(
                strips.strip_width >= r,
                "{w}x{r}: strip {}",
                strips.strip_width
            );
            assert!(
                w / ((strips.count + 1) as f64) < r,
                "{w}x{r}: one more strip would still fit"
            );
        }
    }

    #[test]
    fn exact_boundaries_bin_like_the_grid() {
        let strips = Strips::new(2_000.0, 500.0);
        assert_eq!(strips.strip_of_x(-50.0), 0);
        assert_eq!(strips.strip_of_x(0.0), 0);
        assert_eq!(strips.strip_of_x(499.999), 0);
        assert_eq!(strips.strip_of_x(500.0), 1, "interior boundary goes right");
        assert_eq!(strips.strip_of_x(1_999.999), 3);
        assert_eq!(
            strips.strip_of_x(2_000.0),
            3,
            "exact right edge stays in-map"
        );
        assert_eq!(strips.strip_of_x(2_400.0), 3);
    }

    #[test]
    fn overlap_ranges_cover_the_query_window() {
        let strips = Strips::new(2_000.0, 500.0);
        assert_eq!(strips.overlapping(-100.0, 2_100.0), (0, 3));
        assert_eq!(strips.overlapping(750.0, 750.0), (1, 1));
        assert_eq!(strips.overlapping(499.0, 501.0), (0, 1));
    }

    #[test]
    fn sync_is_due_until_synced_then_again_one_interval_later() {
        let mut index = StripIndex::new(1_500.0, 500.0, 2.0);
        let t0 = SimTime::from_millis(300);
        assert!(index.sync_due(t0), "a new index is unsynced");
        index.sync(t0, &[Vec2::ZERO]);
        assert!(!index.sync_due(t0));
        assert!(!index.sync_due(SimTime::from_millis(1_299)));
        assert!(index.sync_due(SimTime::from_millis(1_300)));
        index.invalidate();
        assert!(index.sync_due(t0));
    }

    #[test]
    #[should_panic(expected = "unsynced")]
    fn query_before_sync_panics() {
        let mut index = StripIndex::new(1_500.0, 500.0, 2.0);
        index.query_into(
            SimTime::ZERO,
            NodeId::new(0),
            Vec2::ZERO,
            false,
            |_| Vec2::ZERO,
            &mut Vec::new(),
        );
    }
}
