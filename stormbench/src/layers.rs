//! Layer probes the storm and session passes do not give directly: the
//! phy range query and reachability BFS on a workload-shaped placement,
//! and MCMP framing of a captured session.

use std::hint::black_box;
use std::time::Instant;

use manet_campaign::Frame;
use manet_mobility::{uniform_placement, Map};
use manet_phy::{in_range_into, NeighborGrid, NodeId};
use manet_sim_engine::{SimRng, WireEncoder};

use crate::storm::nanos;

/// Queries timed per placement (capped by the host count).
const RANGE_QUERIES: usize = 2000;
/// Reachability BFS runs timed per placement.
const BFS_RUNS: usize = 20;

/// Mean cost of the phy layer's geometry queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhyProbe {
    /// Mean `in_range_into` time per query.
    pub range_query_ns: f64,
    /// Mean `NeighborGrid::reachable_into` time per BFS.
    pub reach_bfs_ns: f64,
}

/// Times the linear range query and the grid BFS on a uniform placement
/// of `hosts` on each of `maps`, at the paper's radio radius; means are
/// over all maps together.
pub fn probe_phy(maps: &[u32], hosts: u32, radius: f64, seed: u64) -> PhyProbe {
    let (mut range_ns, mut ranges, mut bfs_ns, mut bfs) = (0u64, 0usize, 0u64, 0usize);
    let mut out = Vec::new();
    for &units in maps {
        let map = Map::square_units(units);
        let mut rng = SimRng::seed_from(seed ^ u64::from(units));
        let positions = uniform_placement(&map, hosts as usize, &mut rng);
        let n = positions.len();

        let queries = RANGE_QUERIES.min(n);
        let t0 = Instant::now();
        for i in 0..queries {
            let of = NodeId::new((i * n / queries) as u32);
            in_range_into(black_box(&positions), of, radius, &mut out);
            black_box(&out);
        }
        range_ns += nanos(t0.elapsed());
        ranges += queries;

        let bounds = map.bounds();
        let mut grid = NeighborGrid::new(bounds.width(), bounds.height(), radius);
        grid.update(&positions);
        let t0 = Instant::now();
        for i in 0..BFS_RUNS {
            let source = NodeId::new((i * n / BFS_RUNS) as u32);
            grid.reachable_into(black_box(&positions), source, radius, &mut out);
            black_box(&out);
        }
        bfs_ns += nanos(t0.elapsed());
        bfs += BFS_RUNS;
    }
    PhyProbe {
        range_query_ns: range_ns as f64 / ranges as f64,
        reach_bfs_ns: bfs_ns as f64 / bfs as f64,
    }
}

/// MCMP framing cost of a captured session.
#[derive(Debug, Clone, Copy, Default)]
pub struct McmpProbe {
    /// Σ `Frame::encode` time.
    pub encode_ns: u64,
    /// Σ `Frame::decode` time.
    pub decode_ns: u64,
    /// Frames re-encoded.
    pub frames: u64,
    /// Encoded payload bytes.
    pub bytes: u64,
    /// Frames that did not decode back to themselves.
    pub mismatches: u64,
}

/// Re-encodes and re-decodes every captured frame, timing each side.
pub fn probe_mcmp(frames: &[Frame]) -> McmpProbe {
    let mut probe = McmpProbe::default();
    let mut enc = WireEncoder::new();
    for frame in frames {
        enc.clear();
        let t0 = Instant::now();
        frame.encode(&mut enc);
        probe.encode_ns += nanos(t0.elapsed());
        let bytes = enc.as_slice();
        let t0 = Instant::now();
        let decoded = Frame::decode(black_box(bytes));
        probe.decode_ns += nanos(t0.elapsed());
        if decoded.as_ref() != Ok(frame) {
            probe.mismatches += 1;
        }
        probe.frames += 1;
        probe.bytes += bytes.len() as u64;
    }
    probe
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phy_probe_measures_both_queries() {
        let p = probe_phy(&[1, 3], 50, 500.0, 9);
        assert!(p.range_query_ns > 0.0 && p.reach_bfs_ns > 0.0);
    }

    #[test]
    fn mcmp_probe_round_trips_frames() {
        let frames = [
            Frame::Shutdown,
            Frame::Cancel { campaign: 3 },
            Frame::JobFailed {
                campaign: 1,
                job: 2,
                label: "x".into(),
                reason: "bad".into(),
            },
        ];
        let p = probe_mcmp(&frames);
        assert_eq!((p.frames, p.mismatches), (3, 0));
        assert!(p.bytes > 3);
    }
}
