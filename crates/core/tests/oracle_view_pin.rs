//! Bench-scale determinism pin for the oracle neighbor views: 2000-host
//! oracle storms on the 10×10 map whose full reports must hash to values
//! recorded before the range queries moved onto the strip index. The
//! schemes are AL (one-hop neighbor count) and NC (the sender's and the
//! receiver's neighbor lists), so every decoded copy asks the index up
//! to two extra range queries on top of the one at each transmission
//! start.
//!
//! A mismatch means a range query answered differently (or the event
//! stream moved). If a change moves the numbers on purpose, recompute
//! the digests with the same configs and update the pins in that commit.

use broadcast_core::{NeighborInfo, SchemeSpec, SimConfig, World};

/// FNV-1a 64 of the Debug rendering of each report (every field).
const PINNED: [(&str, u64); 2] = [("al", 0x9a8a_0164_5c08_a692), ("nc", 0x2f27_dc99_2b70_536d)];

/// FNV-1a 64-bit: tiny, dependency-free, and stable across platforms.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn storm_digest(scheme: &str) -> u64 {
    let config = SimConfig::builder(10, SchemeSpec::parse(scheme).expect("scheme parses"))
        .hosts(2000)
        .broadcasts(2)
        .neighbor_info(NeighborInfo::Oracle)
        .seed(2001)
        .build();
    fnv1a64(format!("{:?}", World::new(config).run()).as_bytes())
}

#[test]
fn oracle_view_storms_match_their_pinned_digests() {
    for (scheme, pinned) in PINNED {
        let digest = storm_digest(scheme);
        assert_eq!(
            digest, pinned,
            "{scheme} oracle storm drifted (got {digest:#018x}, pinned {pinned:#018x})"
        );
    }
}
