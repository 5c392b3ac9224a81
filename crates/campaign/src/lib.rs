//! Campaign server for the MANET broadcast simulator.
//!
//! This crate turns the one-shot simulator into a long-running job
//! service: clients submit *campaigns* — named groups of scenario jobs,
//! each a full deterministic simulation — and stream back per-job
//! metrics as they complete. Four layers, one per module:
//!
//! * [`mcmp`] — the `MCMP` v1 binary session protocol: length-prefixed
//!   frames over any byte stream, carrying job envelopes in and
//!   progress ticks / metrics documents out.
//! * [`queue`] — bounded whole-campaign admission with cancellation
//!   tokens that reach both queued and running campaigns.
//! * [`scheduler`] — the work-stealing job fan-out (sim-engine's
//!   [`fan_out`](manet_sim_engine::fan_out)); per-job results are
//!   byte-identical to one-shot CLI runs for any worker count.
//! * [`server`] / [`client`] — the session loops behind
//!   `manet-sim serve` and `manet-client`.

pub mod client;
pub mod mcmp;
pub mod queue;
pub mod scheduler;
pub mod server;

pub use client::{load_campaign, run_session, ClientReport, SessionOptions};
pub use mcmp::{
    CampaignCounts, Frame, FrameReader, FrameWriter, JobEnvelope, MAX_FRAME_LEN, MCMP_MAGIC,
    MCMP_VERSION,
};
pub use queue::{CampaignQueue, QueuedCampaign, SubmitError};
pub use scheduler::run_campaign;
pub use server::{serve, ServeSummary, ServerConfig};

#[cfg(unix)]
pub use server::serve_unix;
