//! # manet-phy
//!
//! The radio layer of the MANET broadcast-storm reproduction: host and
//! frame [identifiers](NodeId), the shared [`Medium`] with receiver-side
//! collision tracking and carrier sense, and unit-disk
//! [topology queries](reachable_from).
//!
//! The medium is a pure state machine — it never looks at positions. The
//! simulation wiring asks the [`StripIndex`] who is in range of a
//! transmitter (the exact answer of [`in_range_of`], without scanning
//! every host), and drives
//! [`Medium::begin_transmission`] / [`Medium::end_transmission`]. This
//! split keeps the collision model independently testable (including the
//! hidden-terminal and half-duplex cases of paper §2.2.3).
//!
//! # Examples
//!
//! ```
//! use manet_geom::Vec2;
//! use manet_phy::{in_range_of, Medium, NodeId};
//! use manet_sim_engine::{SimDuration, SimTime};
//!
//! // Three hosts on a line; only the middle one hears the first.
//! let positions = [Vec2::ZERO, Vec2::new(450.0, 0.0), Vec2::new(900.0, 0.0)];
//! let src = NodeId::new(0);
//! let listeners = in_range_of(&positions, src, 500.0);
//!
//! let mut medium = Medium::new(3);
//! let t0 = SimTime::ZERO;
//! let airtime = SimDuration::from_micros(2_432); // 280 B at 1 Mb/s + PLCP
//! let start = medium.begin_transmission(src, t0, t0 + airtime, &listeners);
//! let end = medium.end_transmission(start.frame, t0 + airtime);
//! assert_eq!(end.deliveries.len(), 1);
//! assert!(end.deliveries[0].decoded);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod grid;
mod id;
mod medium;
mod strip_index;
mod topology;

pub use grid::NeighborGrid;
pub use id::{FrameId, NodeId};
pub use medium::{
    CaptureModel, CarrierChange, Delivery, Listener, LossCause, LossCounters, Medium, TxEnd,
    TxStart,
};
pub use strip_index::{StripIndex, STRIP_SYNC_INTERVAL};
pub use topology::{components, in_range, in_range_into, in_range_of, reachable_from};
