//! Workload generation. Every input the simulator sees is derived here
//! from the workload seed with the benchmark's own generator, so a change
//! to the simulator's RNG cannot change what is measured.

use broadcast_core::{NeighborInfo, SchemeSpec, SimConfig};
use manet_campaign::JobEnvelope;

/// The seed whose storm digests are pinned in `pinned_digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// The paper's map sizes (Fig. 5 onwards), in units of the radio radius.
pub const PAPER_MAPS: [u32; 6] = [1, 3, 5, 7, 9, 11];
/// The adaptive schemes the paper introduces.
pub const PAPER_SCHEMES: [&str; 3] = ["ac", "al", "nc"];
/// Broadcasts per paper storm (`Scale::Quick`).
pub const PAPER_BROADCASTS: u32 = 60;
/// Storm seeds per `storm_paper` / `campaign_paper` grid.
pub const PAPER_SEEDS: usize = 2;
/// Storm seeds per `storm_10k` set.
pub const HUGE_SEEDS: usize = 4;
/// Jobs per `campaign_tiny` campaign (`examples/campaigns/sweep_1000.txt`).
pub const TINY_JOBS: usize = 1000;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's grid, in-process on one thread.
    StormPaper,
    /// 10⁴ hosts, oracle neighbors: engine and phy dominate.
    Storm10k,
    /// The paper grid as one campaign through `manet_campaign::serve`.
    CampaignPaper,
    /// 1000 sub-millisecond jobs through the same session.
    CampaignTiny,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::StormPaper,
        Workload::Storm10k,
        Workload::CampaignPaper,
        Workload::CampaignTiny,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StormPaper => "storm_paper",
            Workload::Storm10k => "storm_10k",
            Workload::CampaignPaper => "campaign_paper",
            Workload::CampaignTiny => "campaign_tiny",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` for the workloads driven through a campaign session.
    pub fn is_campaign(self) -> bool {
        matches!(self, Workload::CampaignPaper | Workload::CampaignTiny)
    }

    /// The workload's fixed set of storms for `seed`: run one after the
    /// other in-process, or submitted as one campaign.
    pub fn storms(self, seed: u64) -> Vec<StormSpec> {
        match self {
            Workload::StormPaper | Workload::CampaignPaper => paper_grid(seed),
            Workload::Storm10k => huge_storms(seed),
            Workload::CampaignTiny => tiny_sweep(seed),
        }
    }
}

/// One storm: the fields a `JobEnvelope` carries plus the neighbor-info
/// mode (HELLO beacons unless `oracle`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormSpec {
    /// Human-readable label, also the job label.
    pub label: String,
    /// Scheme in `SchemeSpec::parse` syntax.
    pub scheme: String,
    /// Map edge in radio radii.
    pub map: u32,
    /// Host count.
    pub hosts: u32,
    /// Broadcasts issued.
    pub broadcasts: u32,
    /// The simulator's seed.
    pub seed: u64,
    /// Oracle neighbor knowledge instead of HELLO beacons.
    pub oracle: bool,
}

impl StormSpec {
    /// The simulator configuration: default executor, default HELLO
    /// policy, one thread.
    pub fn config(&self) -> SimConfig {
        let scheme = SchemeSpec::parse(&self.scheme).expect("workload schemes parse");
        let mut builder = SimConfig::builder(self.map, scheme)
            .hosts(self.hosts)
            .broadcasts(self.broadcasts)
            .seed(self.seed);
        if self.oracle {
            builder = builder.neighbor_info(NeighborInfo::Oracle);
        }
        builder.build()
    }

    /// The campaign job for this storm (HELLO mode only: the envelope has
    /// no neighbor-info field).
    pub fn envelope(&self) -> JobEnvelope {
        assert!(!self.oracle, "oracle storms cannot be sent as jobs");
        JobEnvelope {
            label: self.label.clone(),
            scheme: self.scheme.clone(),
            map_units: self.map,
            hosts: self.hosts,
            broadcasts: self.broadcasts,
            seed: self.seed,
            repeats: 1,
            scenario: None,
        }
    }
}

/// SplitMix64: the benchmark's own seed expander.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `count` storm seeds for workload seed `seed` under a per-workload
/// `stream`, kept below 2³² so labels stay short.
fn storm_seeds(seed: u64, stream: u64, count: usize) -> Vec<u64> {
    let mut state = seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03);
    (0..count).map(|_| splitmix(&mut state) >> 32).collect()
}

fn paper_grid(seed: u64) -> Vec<StormSpec> {
    let mut storms = Vec::new();
    for s in storm_seeds(seed, 1, PAPER_SEEDS) {
        for scheme in PAPER_SCHEMES {
            for map in PAPER_MAPS {
                storms.push(StormSpec {
                    label: format!("{scheme}-{map}x{map}-s{s}"),
                    scheme: scheme.to_string(),
                    map,
                    hosts: 100,
                    broadcasts: PAPER_BROADCASTS,
                    seed: s,
                    oracle: false,
                });
            }
        }
    }
    storms
}

fn huge_storms(seed: u64) -> Vec<StormSpec> {
    storm_seeds(seed, 2, HUGE_SEEDS)
        .into_iter()
        .map(|s| StormSpec {
            label: format!("counter3-10x10-10000h-s{s}"),
            scheme: "counter:3".to_string(),
            map: 10,
            hosts: 10_000,
            broadcasts: 2,
            seed: s,
            oracle: true,
        })
        .collect()
}

fn tiny_sweep(seed: u64) -> Vec<StormSpec> {
    storm_seeds(seed, 3, TINY_JOBS)
        .into_iter()
        .map(|s| StormSpec {
            label: format!("ac-s{s}"),
            scheme: "ac".to_string(),
            map: 1,
            hosts: 10,
            broadcasts: 2,
            seed: s,
            oracle: false,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        for w in Workload::ALL {
            assert_eq!(w.storms(7), w.storms(7), "{}", w.name());
        }
    }

    #[test]
    fn generation_changes_with_the_seed() {
        for w in Workload::ALL {
            let (a, b) = (w.storms(7), w.storms(8));
            assert_eq!(a.len(), b.len());
            assert_ne!(a, b, "{}", w.name());
        }
    }

    #[test]
    fn workloads_have_the_documented_shape() {
        assert_eq!(Workload::StormPaper.storms(1).len(), 3 * 6 * PAPER_SEEDS);
        assert_eq!(
            Workload::CampaignPaper.storms(1),
            Workload::StormPaper.storms(1)
        );
        assert_eq!(Workload::Storm10k.storms(1).len(), HUGE_SEEDS);
        assert_eq!(Workload::CampaignTiny.storms(1).len(), TINY_JOBS);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            for storm in w.storms(3) {
                let cfg = storm.config();
                assert_eq!(cfg.shards, 1, "default executor only");
                assert!(!cfg.parallel_epochs, "default executor only");
                assert!(cfg.validate().is_ok(), "{}", storm.label);
            }
        }
    }

    #[test]
    fn campaign_envelopes_rebuild_the_in_process_config() {
        let storm = &Workload::CampaignPaper.storms(5)[4];
        let env = storm.envelope();
        let cfg = SimConfig::builder(env.map_units, SchemeSpec::parse(&env.scheme).unwrap())
            .hosts(env.hosts)
            .broadcasts(env.broadcasts)
            .seed(env.seed)
            .build();
        assert_eq!(format!("{cfg:?}"), format!("{:?}", storm.config()));
    }
}
