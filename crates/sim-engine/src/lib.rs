//! # manet-sim-engine
//!
//! A small, deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the MANET broadcast-storm reproduction:
//! everything above it — radio channel, IEEE 802.11 DCF, mobility, the
//! broadcast schemes themselves — is expressed as events scheduled on the
//! [`EventQueue`] and consumed by an [`EventHandler`].
//!
//! Design goals:
//!
//! * **Determinism.** Same seed, same event order, same results. Ties at
//!   identical timestamps are broken FIFO, and all randomness flows through
//!   the seedable [`SimRng`].
//! * **Zero dependencies.** The generator behind [`SimRng`] is the in-tree
//!   xoshiro256++ in [`prng`]; the whole workspace builds offline from a
//!   clean checkout with an empty registry.
//! * **Cancellation.** Broadcast suppression schemes constantly cancel
//!   pending rebroadcasts, so [`EventQueue::cancel`] is a first-class,
//!   `O(1)` operation (lazy deletion).
//! * **No global state.** The engine owns nothing about the model; it is a
//!   clock, a queue, and a loop.
//!
//! # Examples
//!
//! ```
//! use manet_sim_engine::{run, EventHandler, EventQueue, SimDuration, SimTime};
//!
//! struct Countdown(u32);
//!
//! impl EventHandler<&'static str> for Countdown {
//!     fn handle(&mut self, now: SimTime, _: &'static str, q: &mut EventQueue<&'static str>) {
//!         if self.0 > 0 {
//!             self.0 -= 1;
//!             q.schedule(now + SimDuration::from_secs(1), "tick");
//!         }
//!     }
//! }
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::ZERO, "tick");
//! let mut model = Countdown(3);
//! run(&mut model, &mut queue);
//! assert_eq!(queue.now(), SimTime::from_secs(3));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fan_out;
pub mod metrics;
pub mod prng;
mod queue;
mod rng;
mod runner;
mod slab;
mod time;
mod timeline;
mod wire;

pub use fan_out::fan_out;
pub use metrics::{
    json_escape, json_f64, Counter, Gauge, Histogram, HistogramSnapshot, KindProfile, LoopProfile,
    LoopProfiler, MetricsRegistry, DEFAULT_LATENCY_BOUNDS_S,
};
pub use queue::{EventKey, EventQueue};
pub use rng::SimRng;
pub use runner::{run, run_profiled, run_until, EventHandler, RunOutcome};
pub use slab::{Slab, SlabSlot};
pub use time::{SimDuration, SimTime};
pub use timeline::Timeline;
pub use wire::{WireDecoder, WireEncoder, WireError};
