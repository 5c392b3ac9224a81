//! Simulation configuration.
//!
//! [`SimConfig`] captures one simulation run: the map, the host
//! population and mobility, the broadcast scheme, how neighborhood
//! information is obtained, and the workload. Defaults match the paper's
//! fixed parameters (§4); a builder makes the sweeps in the experiment
//! harness terse.

use manet_mobility::{Map, PAPER_RADIO_RADIUS_M};
use manet_net::HelloIntervalPolicy;
use manet_scenario::Scenario;
use manet_sim_engine::SimDuration;

use crate::schemes::SchemeSpec;

/// Where the adaptive schemes get their neighborhood information.
#[derive(Debug, Clone, PartialEq)]
pub enum NeighborInfo {
    /// Real HELLO beacons over the simulated channel (the paper's setup):
    /// neighbor knowledge costs bandwidth and can go stale.
    Hello(HelloIntervalPolicy),
    /// Perfect instantaneous knowledge from the simulator's geometry.
    /// Not part of the paper — used by tests and the oracle-vs-hello
    /// ablation.
    Oracle,
}

/// Which mobility model hosts follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MobilitySpec {
    /// The paper's random-turn roaming (uniform direction, speed, and
    /// 1–100 s interval per turn).
    RandomTurn,
    /// The classic random-waypoint model (travel to a uniform destination,
    /// pause, repeat) — an extension for robustness checks.
    RandomWaypoint,
    /// Hosts never move (deterministic topologies for tests).
    Stationary,
}

/// Physical-layer capture configuration (an extension beyond the paper,
/// which assumes any overlap garbles all frames involved).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureConfig {
    /// Required linear signal-to-interference ratio for a frame to
    /// survive overlap (e.g. 4.0 ≈ 6 dB).
    pub sir_threshold: f64,
    /// Path-loss exponent used to derive received signal strength
    /// `(r / d)^alpha` from the transmitter distance `d` (2 = free space,
    /// 4 = ground reflection).
    pub path_loss_exponent: f64,
}

impl CaptureConfig {
    /// A conventional 802.11-ish model: 10 dB SIR, path-loss exponent 4.
    pub fn typical() -> Self {
        CaptureConfig {
            sir_threshold: 10.0,
            path_loss_exponent: 4.0,
        }
    }
}

/// How hosts are initially placed on the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementSpec {
    /// Independent uniform positions (the paper's setup).
    Uniform,
    /// An evenly spaced grid covering the map — deterministic, fully
    /// connected on dense maps.
    Grid,
    /// A horizontal chain through the map center with the given spacing
    /// in meters. With spacing below the radio radius each host reaches
    /// exactly its chain neighbors — ideal for exact-propagation tests.
    Line {
        /// Distance between consecutive hosts, meters.
        spacing_m: u32,
    },
}

/// Full description of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Side of the square map in 500 m units (the paper uses 1–11).
    pub map_units: u32,
    /// Number of mobile hosts (paper: 100).
    pub hosts: u32,
    /// Maximum roaming speed in km/h; `None` uses the paper's default for
    /// the map size (10 km/h per map unit).
    pub max_speed_kmh: Option<f64>,
    /// The broadcast scheme under test.
    pub scheme: SchemeSpec,
    /// Source of neighborhood information.
    pub neighbor_info: NeighborInfo,
    /// Initial host placement.
    pub placement: PlacementSpec,
    /// Mobility model (default: the paper's random turns).
    pub mobility: MobilitySpec,
    /// Number of broadcast requests to issue (paper: 10 000).
    pub broadcasts: u32,
    /// Interarrival between broadcasts is uniform in `[0, this]`
    /// (paper: 2 s).
    pub max_interarrival: SimDuration,
    /// Broadcast payload size in bytes (paper: 280).
    pub packet_bytes: usize,
    /// Transmission radius in meters (paper: 500).
    pub radio_radius: f64,
    /// Root RNG seed; every component derives its stream from this.
    pub seed: u64,
    /// Extra simulated time after the last broadcast is issued, letting
    /// in-flight packets settle before metrics are read.
    pub grace: SimDuration,
    /// Simulated time before the first broadcast is issued, giving HELLO
    /// beacons a chance to populate neighbor tables.
    pub warmup: SimDuration,
    /// Independent per-delivery frame-loss probability (failure
    /// injection; 0 reproduces the paper).
    pub drop_probability: f64,
    /// Grid resolution of the location schemes' coverage estimator.
    pub coverage_resolution: usize,
    /// Carrier-sense latency: how long after a frame appears on the air
    /// neighbors' clear-channel assessment reports busy (and how long
    /// after it ends they report idle). The paper's collision analysis
    /// leans on carriers not being sensed immediately ("RF delays");
    /// 15 µs is the DSSS CCA assessment time. Zero gives an idealized
    /// instant-sensing channel.
    pub cs_delay: SimDuration,
    /// Optional physical-layer capture model; `None` reproduces the
    /// paper's no-capture collisions.
    pub capture: Option<CaptureConfig>,
    /// When `true`, the event loop measures wall-clock time per event
    /// kind and attaches a [`LoopProfile`](manet_sim_engine::LoopProfile)
    /// to the report. Off by default: the disabled path costs a single
    /// branch per event.
    pub profile_events: bool,
    /// Optional scripted scenario: host churn and fault windows compiled
    /// into world events (see the `manet-scenario` crate). `None`
    /// reproduces the paper's fault-free fixed population.
    pub scenario: Option<Scenario>,
    /// Always 1; [`validate`](Self::validate) rejects any other value.
    /// A leftover of the removed sharded executor that the benchmark
    /// still reads; removed with the next benchmark change.
    pub shards: u32,
    /// Always `false`; [`validate`](Self::validate) rejects `true`. A
    /// leftover of the removed epoch-parallel executor that the benchmark
    /// still reads; removed with the next benchmark change.
    pub parallel_epochs: bool,
}

impl SimConfig {
    /// Starts a builder for a run of `scheme` on a `map_units × map_units`
    /// map.
    pub fn builder(map_units: u32, scheme: SchemeSpec) -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig {
                map_units,
                hosts: 100,
                max_speed_kmh: None,
                scheme,
                neighbor_info: NeighborInfo::Hello(HelloIntervalPolicy::fixed_1s()),
                placement: PlacementSpec::Uniform,
                mobility: MobilitySpec::RandomTurn,
                broadcasts: 100,
                max_interarrival: SimDuration::from_secs(2),
                packet_bytes: 280,
                radio_radius: PAPER_RADIO_RADIUS_M,
                seed: 1,
                grace: SimDuration::from_secs(5),
                warmup: SimDuration::from_secs(5),
                drop_probability: 0.0,
                coverage_resolution: 48,
                cs_delay: SimDuration::from_micros(15),
                capture: None,
                profile_events: false,
                scenario: None,
                shards: 1,
                parallel_epochs: false,
            },
        }
    }

    /// The map this configuration runs on.
    pub fn map(&self) -> Map {
        Map::square_units(self.map_units)
    }

    /// The effective maximum roaming speed in km/h.
    pub fn effective_max_speed_kmh(&self) -> f64 {
        self.max_speed_kmh
            .unwrap_or_else(|| self.map().paper_max_speed_kmh())
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.map_units == 0 {
            return Err("map must be at least 1x1".into());
        }
        if self.hosts == 0 {
            return Err("need at least one host".into());
        }
        if self.broadcasts == 0 {
            return Err("need at least one broadcast".into());
        }
        if !(self.radio_radius.is_finite() && self.radio_radius > 0.0) {
            return Err(format!("bad radio radius {}", self.radio_radius));
        }
        if !(0.0..=1.0).contains(&self.drop_probability) {
            return Err(format!("bad drop probability {}", self.drop_probability));
        }
        if self.coverage_resolution < 2 {
            return Err("coverage resolution must be at least 2".into());
        }
        if let Some(speed) = self.max_speed_kmh {
            if !(speed.is_finite() && speed >= 0.0) {
                return Err(format!("bad max speed {speed}"));
            }
        }
        if self.packet_bytes == 0 {
            return Err("packet must have at least one byte".into());
        }
        if let Some(capture) = self.capture {
            if !(capture.sir_threshold.is_finite() && capture.sir_threshold > 0.0) {
                return Err(format!("bad SIR threshold {}", capture.sir_threshold));
            }
            if !(capture.path_loss_exponent.is_finite() && capture.path_loss_exponent > 0.0) {
                return Err(format!(
                    "bad path-loss exponent {}",
                    capture.path_loss_exponent
                ));
            }
        }
        if let Some(scenario) = &self.scenario {
            scenario
                .validate(self.hosts)
                .map_err(|e| format!("scenario: {e}"))?;
        }
        if self.shards != 1 || self.parallel_epochs {
            return Err("one executor only: shards must be 1, parallel_epochs false".into());
        }
        if let PlacementSpec::Line { spacing_m } = self.placement {
            let length = f64::from(spacing_m) * f64::from(self.hosts - 1);
            if length > self.map().bounds().width() {
                return Err(format!(
                    "line placement of {} hosts at {spacing_m} m does not fit the map",
                    self.hosts
                ));
            }
        }
        Ok(())
    }
}

/// Builder for [`SimConfig`].
///
/// # Examples
///
/// ```
/// use broadcast_core::{SchemeSpec, SimConfig};
///
/// let config = SimConfig::builder(5, SchemeSpec::Counter(2))
///     .broadcasts(50)
///     .seed(7)
///     .build();
/// assert_eq!(config.map_units, 5);
/// assert_eq!(config.effective_max_speed_kmh(), 50.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Number of hosts (default 100, as in the paper).
    pub fn hosts(mut self, hosts: u32) -> Self {
        self.config.hosts = hosts;
        self
    }

    /// Maximum roaming speed in km/h (default: the paper's per-map value).
    pub fn max_speed_kmh(mut self, kmh: f64) -> Self {
        self.config.max_speed_kmh = Some(kmh);
        self
    }

    /// Number of broadcast requests (paper: 10 000; default here 100 for
    /// laptop-scale sweeps).
    pub fn broadcasts(mut self, broadcasts: u32) -> Self {
        self.config.broadcasts = broadcasts;
        self
    }

    /// Source of neighbor information (default: HELLO every 1 s).
    pub fn neighbor_info(mut self, info: NeighborInfo) -> Self {
        self.config.neighbor_info = info;
        self
    }

    /// Initial host placement (default: uniform, as in the paper).
    pub fn placement(mut self, placement: PlacementSpec) -> Self {
        self.config.placement = placement;
        self
    }

    /// Mobility model (default: the paper's random turns).
    pub fn mobility(mut self, mobility: MobilitySpec) -> Self {
        self.config.mobility = mobility;
        self
    }

    /// Root RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Broadcast interarrival upper bound (default 2 s).
    pub fn max_interarrival(mut self, d: SimDuration) -> Self {
        self.config.max_interarrival = d;
        self
    }

    /// Settle time after the last broadcast (default 5 s).
    pub fn grace(mut self, d: SimDuration) -> Self {
        self.config.grace = d;
        self
    }

    /// Warm-up time before the first broadcast (default 5 s).
    pub fn warmup(mut self, d: SimDuration) -> Self {
        self.config.warmup = d;
        self
    }

    /// Injected per-delivery loss probability (default 0).
    pub fn drop_probability(mut self, p: f64) -> Self {
        self.config.drop_probability = p;
        self
    }

    /// Coverage-grid resolution for the location schemes (default 48).
    pub fn coverage_resolution(mut self, resolution: usize) -> Self {
        self.config.coverage_resolution = resolution;
        self
    }

    /// Enables physical-layer capture (default: off, as in the paper).
    pub fn capture(mut self, capture: CaptureConfig) -> Self {
        self.config.capture = Some(capture);
        self
    }

    /// Enables per-event-kind wall-clock profiling of the event loop
    /// (default: off).
    pub fn profile_events(mut self, enabled: bool) -> Self {
        self.config.profile_events = enabled;
        self
    }

    /// Carrier-sense latency (default 15 µs; zero = instant sensing).
    pub fn cs_delay(mut self, delay: SimDuration) -> Self {
        self.config.cs_delay = delay;
        self
    }

    /// Attaches a scripted scenario (churn and fault windows); validated
    /// against the run's host count at [`build`](Self::build).
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.config.scenario = Some(scenario);
        self
    }

    /// Broadcast payload size in bytes (default 280).
    pub fn packet_bytes(mut self, bytes: usize) -> Self {
        self.config.packet_bytes = bytes;
        self
    }

    /// Radio radius in meters (default 500).
    pub fn radio_radius(mut self, meters: f64) -> Self {
        self.config.radio_radius = meters;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`SimConfig::validate`]).
    pub fn build(self) -> SimConfig {
        if let Err(msg) = self.config.validate() {
            panic!("invalid simulation config: {msg}");
        }
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = SimConfig::builder(3, SchemeSpec::Flooding).build();
        assert_eq!(c.hosts, 100);
        assert_eq!(c.packet_bytes, 280);
        assert_eq!(c.radio_radius, 500.0);
        assert_eq!(c.max_interarrival, SimDuration::from_secs(2));
        assert_eq!(c.effective_max_speed_kmh(), 30.0);
    }

    #[test]
    fn speed_override_wins() {
        let c = SimConfig::builder(3, SchemeSpec::Flooding)
            .max_speed_kmh(80.0)
            .build();
        assert_eq!(c.effective_max_speed_kmh(), 80.0);
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = SimConfig::builder(3, SchemeSpec::Flooding).build();
        c.drop_probability = 1.5;
        assert!(c.validate().is_err());
        c.drop_probability = 0.0;
        c.hosts = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_any_executor_but_the_sequential_one() {
        let mut c = SimConfig::builder(3, SchemeSpec::Flooding).build();
        assert!(c.validate().is_ok());
        c.shards = 4;
        assert!(c.validate().is_err());
        c.shards = 1;
        c.parallel_epochs = true;
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid simulation config")]
    fn builder_panics_on_invalid() {
        let _ = SimConfig::builder(3, SchemeSpec::Flooding)
            .drop_probability(2.0)
            .build();
    }
}
