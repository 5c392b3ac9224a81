//! World snapshots: the `MSNP` binary checkpoint format.
//!
//! [`World::snapshot`] serializes a *paused* world — pause with
//! [`World::advance_until`](crate::World::advance_until) — into a
//! self-contained byte stream; [`World::resume`] rebuilds a world from
//! those bytes that continues **bit-identically** to the uninterrupted
//! run. Everything behaviorally relevant is captured: the event queue
//! (times, sequence numbers, cancellation tombstones already applied),
//! every RNG stream's position, per-host MAC and mobility state, the
//! radio medium, the pure protocol models, and the metrics.
//!
//! Deliberately *not* captured (rebuilt or irrelevant on resume):
//!
//! * config-derived structure — the map, spatial grid, coverage grid,
//!   scheme thresholds, the compiled scenario timeline — all re-derived
//!   from the [`SimConfig`] the caller passes to [`World::resume`];
//! * scratch buffers and recycling pools (capacity caches only);
//! * position caches and spatial indexes (`snap_at`/`grid_at` and the
//!   strip index are invalidated);
//! * the action recorder and the event-loop profiler.
//!
//! The stream opens with a length-prefixed **config fingerprint**:
//! a canonical encoding of every behavior-affecting [`SimConfig`] field.
//! [`World::resume`] re-encodes the fingerprint of the config it is
//! given and rejects the snapshot on any mismatch, so a checkpoint can
//! never be resumed against a world built from different parameters.
//!
//! # Wire format
//!
//! All fields use the fixed-width little-endian primitives of
//! [`WireEncoder`]. Layout (in order): magic `MSNP` + version `u32`;
//! fingerprint bytes; event queue (counters, then `(time, seq, event)`
//! entries); workload and protocol RNG states; per-host MAC, outgoing
//! payload slab, pending-HELLO timer, and mobility state; the medium;
//! the pure models (ledgers, neighbor tables, variation trackers,
//! suppression tallies); the metrics collector; in-flight frames; the
//! delayed carrier-report batches; the workload scalars; and the
//! optional scenario state. Slab-backed state (MAC queues, active
//! packets, carrier batches, active transmissions) is exported *with
//! its slot layout* because handles and event payloads index into it.

use std::collections::BTreeSet;

use manet_geom::Vec2;
use manet_mac::{Dcf, FrameHandle, MacStats};
use manet_mobility::Mobility;
use manet_net::{HelloPayload, NeighborTable, VariationTracker};
use manet_phy::{FrameId, NodeId};
use manet_sim_engine::{
    EventKey, EventQueue, SimDuration, SimRng, SimTime, Slab, SlabSlot, WireDecoder, WireEncoder,
    WireError,
};

use crate::config::{MobilitySpec, PlacementSpec, SimConfig};
use crate::ids::PacketId;
use crate::ledger::{ActivePacket, PacketLedger};
use crate::metrics::{MetricsCollector, ScenarioCounts, SuppressionCounts};
use crate::record::encode_replay_config;
use crate::schemes::{PacketPolicy, SchemeSpec};

use super::{Event, HostMobility, InFlight, Payload, ScenarioState, World};

/// Magic bytes opening a snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"MSNP";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

impl World {
    /// Serializes this (paused or finished) world into a self-contained
    /// checkpoint. Resuming it with the same [`SimConfig`] continues the
    /// run bit-identically to never having paused.
    ///
    /// Pause at a clean boundary first:
    /// [`advance_until`](Self::advance_until) stops *between* events, so
    /// no transient scratch state is live. An armed action recorder is
    /// not captured — a trace must cover a whole run to replay.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut enc = WireEncoder::with_magic(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);

        let mut fingerprint = WireEncoder::new();
        encode_fingerprint(&mut fingerprint, &self.cfg);
        enc.bytes(fingerprint.as_slice());

        // Event queue: counters, then live entries in (time, seq) order.
        let (now, next_seq, delivered, scheduled) = self.queue.counters();
        enc.u64(now.as_nanos());
        enc.u64(next_seq);
        enc.u64(delivered);
        enc.u64(scheduled);
        let entries = self.queue.snapshot_entries();
        enc.len(entries.len());
        for (time, seq, event) in entries {
            enc.u64(time.as_nanos());
            enc.u64(seq);
            encode_event(&mut enc, event);
        }

        encode_rng(&mut enc, &self.workload_rng);
        encode_rng(&mut enc, &self.proto_rng);

        enc.len(self.nodes.len());
        for node in &self.nodes {
            node.mac.snapshot_into(&mut enc);
            encode_payload_slab(&mut enc, &node.outgoing);
            match node.hello_pending {
                None => enc.bool(false),
                Some((key, at)) => {
                    enc.bool(true);
                    enc.u64(key.as_raw());
                    enc.u64(at.as_nanos());
                }
            }
            encode_mobility(&mut enc, &node.mobility);
        }

        self.medium.snapshot_into(&mut enc);

        let (ledgers, tables, trackers, suppression) = self.pure.snapshot_parts();
        for ledger in ledgers {
            encode_ledger(&mut enc, ledger);
        }
        for table in tables {
            table.snapshot_into(&mut enc);
        }
        for tracker in trackers {
            tracker.snapshot_into(&mut enc);
        }
        encode_suppression(&mut enc, suppression);

        self.metrics.snapshot_into(&mut enc);

        enc.len(self.in_flight.len());
        for slot in &self.in_flight {
            match slot {
                None => enc.bool(false),
                Some(frame) => {
                    enc.bool(true);
                    enc.u32(frame.sender.index() as u32);
                    encode_payload(&mut enc, &frame.payload);
                    enc.f64(frame.sent_from.x);
                    enc.f64(frame.sent_from.y);
                    enc.u32(frame.sender_epoch);
                }
            }
        }

        encode_carrier_batches(&mut enc, &self.carrier_batches);

        enc.u32(self.next_seq);
        enc.u32(self.issued);
        enc.u64(self.stop_at.as_nanos());
        enc.u64(self.hello_frames);
        enc.u64(self.data_frames);
        enc.u64(self.hello_rx);
        enc.u64(self.last_event_at.as_nanos());
        enc.bool(self.finished);

        match &self.scenario {
            None => enc.bool(false),
            Some(st) => {
                enc.bool(true);
                encode_scenario_state(&mut enc, st);
            }
        }

        enc.into_bytes()
    }

    /// Rebuilds a world from a [`snapshot`](Self::snapshot), continuing
    /// the run bit-identically to the world the snapshot was taken from.
    ///
    /// `config` must describe the same run the snapshot was taken from;
    /// it is checked against the embedded fingerprint. Recording and
    /// profiling are not resumed.
    ///
    /// # Errors
    ///
    /// Returns a positioned [`WireError`] on malformed input, a version
    /// or fingerprint mismatch, or state inconsistent with `config`.
    pub fn resume(config: SimConfig, bytes: &[u8]) -> Result<World, WireError> {
        let mut dec = WireDecoder::new(bytes);
        let version = dec.expect_magic(SNAPSHOT_MAGIC)?;
        if version != SNAPSHOT_VERSION {
            return Err(WireError {
                at: 4,
                what: "unsupported snapshot version",
            });
        }
        let fingerprint_at = dec.position();
        let stored = dec.bytes()?;
        let mut fingerprint = WireEncoder::new();
        encode_fingerprint(&mut fingerprint, &config);
        if stored != fingerprint.as_slice() {
            return Err(WireError {
                at: fingerprint_at,
                what: "snapshot was taken under a different config",
            });
        }
        let scheme = config.scheme.clone();
        let mut world = World::new(config);
        let hosts = world.nodes.len();

        // Event queue: drop the fresh world's schedule entirely and
        // rebuild the snapshotted one (same times, same seqs, so stored
        // cancellation keys still address their events).
        let now = SimTime::from_nanos(dec.u64()?);
        let next_seq = dec.u64()?;
        let delivered = dec.u64()?;
        let scheduled = dec.u64()?;
        let count = dec.len()?;
        let mut entries = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let time = SimTime::from_nanos(dec.u64()?);
            let seq = dec.u64()?;
            let event = decode_event(&mut dec)?;
            entries.push((time, seq, event));
        }
        world.queue = EventQueue::restore(now, next_seq, delivered, scheduled, entries);

        world.workload_rng = decode_rng(&mut dec)?;
        world.proto_rng = decode_rng(&mut dec)?;

        let hosts_at = dec.position();
        if dec.len()? != hosts {
            return Err(WireError {
                at: hosts_at,
                what: "snapshot host count mismatch",
            });
        }
        for node in &mut world.nodes {
            node.mac = Dcf::restore_snapshot(&mut dec)?;
            node.outgoing = decode_payload_slab(&mut dec)?;
            node.hello_pending = if dec.bool()? {
                let key = EventKey::from_raw(dec.u64()?);
                let at = SimTime::from_nanos(dec.u64()?);
                Some((key, at))
            } else {
                None
            };
            decode_mobility(&mut dec, &mut node.mobility)?;
        }
        // Motion segments are a dense cache over the mobility models;
        // re-derive them and drop the position caches and the indexes
        // built over them: a sync made before the restore describes the
        // fresh world's trajectories, not the restored ones.
        for (seg, node) in world.segments.iter_mut().zip(&world.nodes) {
            *seg = node.mobility.segment();
        }
        world.snap_at = None;
        world.grid_at = None;
        world.index.invalidate();

        world.medium.restore_snapshot(&mut dec)?;

        let mut ledgers = Vec::with_capacity(hosts);
        for _ in 0..hosts {
            ledgers.push(decode_ledger(&mut dec, &scheme)?);
        }
        let mut tables = Vec::with_capacity(hosts);
        for _ in 0..hosts {
            tables.push(NeighborTable::restore_snapshot(&mut dec)?);
        }
        let mut trackers = Vec::with_capacity(hosts);
        for _ in 0..hosts {
            trackers.push(VariationTracker::restore_snapshot(&mut dec)?);
        }
        let suppression = decode_suppression(&mut dec)?;
        world
            .pure
            .restore_parts(ledgers, tables, trackers, suppression);

        world.metrics = MetricsCollector::restore_snapshot(&mut dec)?;

        let slots = dec.len()?;
        world.in_flight.clear();
        world.in_flight.reserve(slots.min(1 << 16));
        for _ in 0..slots {
            world.in_flight.push(if dec.bool()? {
                Some(InFlight {
                    sender: NodeId::new(dec.u32()?),
                    payload: decode_payload(&mut dec)?,
                    sent_from: Vec2::new(dec.f64()?, dec.f64()?),
                    sender_epoch: dec.u32()?,
                })
            } else {
                None
            });
        }

        world.carrier_batches = decode_carrier_batches(&mut dec)?;

        world.next_seq = dec.u32()?;
        world.issued = dec.u32()?;
        world.stop_at = SimTime::from_nanos(dec.u64()?);
        world.hello_frames = dec.u64()?;
        world.data_frames = dec.u64()?;
        world.hello_rx = dec.u64()?;
        world.last_event_at = SimTime::from_nanos(dec.u64()?);
        world.finished = dec.bool()?;

        let scenario_at = dec.position();
        match (dec.bool()?, world.scenario.as_mut()) {
            (false, None) => {}
            (true, Some(st)) => restore_scenario_state(&mut dec, st)?,
            _ => {
                return Err(WireError {
                    at: scenario_at,
                    what: "scenario presence mismatch",
                })
            }
        }

        dec.finish()?;
        Ok(world)
    }
}

/// Encodes every behavior-affecting configuration field, canonically.
/// Two configs with equal fingerprints drive identical runs.
fn encode_fingerprint(enc: &mut WireEncoder, cfg: &SimConfig) {
    // The replay slice (hosts, radius, coverage, scheme, neighbor info)…
    encode_replay_config(enc, cfg);
    // …plus everything the dispatcher reads.
    enc.u64(cfg.seed);
    enc.u32(cfg.map_units);
    enc.u32(cfg.broadcasts);
    enc.u64(cfg.max_interarrival.as_nanos());
    enc.usize(cfg.packet_bytes);
    enc.u64(cfg.grace.as_nanos());
    enc.u64(cfg.warmup.as_nanos());
    enc.f64(cfg.drop_probability);
    enc.u64(cfg.cs_delay.as_nanos());
    match cfg.capture {
        None => enc.bool(false),
        Some(capture) => {
            enc.bool(true);
            enc.f64(capture.sir_threshold);
            enc.f64(capture.path_loss_exponent);
        }
    }
    match cfg.placement {
        PlacementSpec::Uniform => enc.u8(0),
        PlacementSpec::Grid => enc.u8(1),
        PlacementSpec::Line { spacing_m } => {
            enc.u8(2);
            enc.u32(spacing_m);
        }
    }
    match cfg.mobility {
        MobilitySpec::RandomTurn => enc.u8(0),
        MobilitySpec::RandomWaypoint => enc.u8(1),
        MobilitySpec::Stationary => enc.u8(2),
    }
    match cfg.max_speed_kmh {
        None => enc.bool(false),
        Some(speed) => {
            enc.bool(true);
            enc.f64(speed);
        }
    }
    // The scenario script compiles deterministically; its debug form is
    // a canonical description of the timeline.
    match &cfg.scenario {
        None => enc.bool(false),
        Some(scenario) => {
            enc.bool(true);
            enc.str(&format!("{scenario:?}"));
        }
    }
}

fn encode_rng(enc: &mut WireEncoder, rng: &SimRng) {
    for word in rng.state() {
        enc.u64(word);
    }
}

fn decode_rng(dec: &mut WireDecoder<'_>) -> Result<SimRng, WireError> {
    let mut state = [0u64; 4];
    for word in &mut state {
        *word = dec.u64()?;
    }
    Ok(SimRng::from_state(state))
}

fn encode_packet(enc: &mut WireEncoder, packet: PacketId) {
    enc.u32(packet.source.index() as u32);
    enc.u32(packet.seq);
}

fn decode_packet(dec: &mut WireDecoder<'_>) -> Result<PacketId, WireError> {
    let source = NodeId::new(dec.u32()?);
    let seq = dec.u32()?;
    Ok(PacketId::new(source, seq))
}

fn encode_event(enc: &mut WireEncoder, event: &Event) {
    match *event {
        Event::MobilityTurn { node } => {
            enc.u8(0);
            enc.u32(node.index() as u32);
        }
        Event::HelloTimer { node } => {
            enc.u8(1);
            enc.u32(node.index() as u32);
        }
        Event::MacTimer {
            node,
            generation,
            epoch,
        } => {
            enc.u8(2);
            enc.u32(node.index() as u32);
            enc.u64(generation);
            enc.u32(epoch);
        }
        Event::TxEnd { frame } => {
            enc.u8(3);
            enc.u64(frame.as_u64());
        }
        Event::AssessmentDone { node, packet } => {
            enc.u8(4);
            enc.u32(node.index() as u32);
            encode_packet(enc, packet);
        }
        Event::IssueBroadcast => enc.u8(5),
        Event::CarrierBatch { slot, busy } => {
            enc.u8(6);
            enc.u32(slot);
            enc.bool(busy);
        }
        Event::Scenario { index } => {
            enc.u8(7);
            enc.u32(index);
        }
    }
}

fn decode_event(dec: &mut WireDecoder<'_>) -> Result<Event, WireError> {
    let at = dec.position();
    Ok(match dec.u8()? {
        0 => Event::MobilityTurn {
            node: NodeId::new(dec.u32()?),
        },
        1 => Event::HelloTimer {
            node: NodeId::new(dec.u32()?),
        },
        2 => Event::MacTimer {
            node: NodeId::new(dec.u32()?),
            generation: dec.u64()?,
            epoch: dec.u32()?,
        },
        3 => Event::TxEnd {
            frame: FrameId::from_raw(dec.u64()?),
        },
        4 => Event::AssessmentDone {
            node: NodeId::new(dec.u32()?),
            packet: decode_packet(dec)?,
        },
        5 => Event::IssueBroadcast,
        6 => Event::CarrierBatch {
            slot: dec.u32()?,
            busy: dec.bool()?,
        },
        7 => Event::Scenario { index: dec.u32()? },
        _ => {
            return Err(WireError {
                at,
                what: "invalid event tag",
            })
        }
    })
}

fn encode_payload(enc: &mut WireEncoder, payload: &Payload) {
    match payload {
        Payload::Broadcast(packet) => {
            enc.u8(0);
            encode_packet(enc, *packet);
        }
        Payload::Hello(hello) => {
            enc.u8(1);
            enc.u32(hello.sender.index() as u32);
            enc.u64(hello.interval.as_nanos());
            enc.len(hello.neighbors.len());
            for &n in &hello.neighbors {
                enc.u32(n.index() as u32);
            }
        }
    }
}

fn decode_payload(dec: &mut WireDecoder<'_>) -> Result<Payload, WireError> {
    let at = dec.position();
    Ok(match dec.u8()? {
        0 => Payload::Broadcast(decode_packet(dec)?),
        1 => {
            let sender = NodeId::new(dec.u32()?);
            let interval = SimDuration::from_nanos(dec.u64()?);
            let count = dec.len()?;
            let mut neighbors = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                neighbors.push(NodeId::new(dec.u32()?));
            }
            Payload::Hello(HelloPayload {
                sender,
                interval,
                neighbors,
            })
        }
        _ => {
            return Err(WireError {
                at,
                what: "invalid payload tag",
            })
        }
    })
}

fn encode_payload_slab(enc: &mut WireEncoder, slab: &Slab<Payload>) {
    let (free_head, slots) = slab.export_slots();
    enc.u32(free_head);
    let slots: Vec<_> = slots.collect();
    enc.len(slots.len());
    for slot in slots {
        match slot {
            SlabSlot::Vacant { next_free } => {
                enc.u8(0);
                enc.u32(next_free);
            }
            SlabSlot::Occupied(payload) => {
                enc.u8(1);
                encode_payload(enc, payload);
            }
        }
    }
}

fn decode_payload_slab(dec: &mut WireDecoder<'_>) -> Result<Slab<Payload>, WireError> {
    let free_head = dec.u32()?;
    let count = dec.len()?;
    let mut slots = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let at = dec.position();
        slots.push(match dec.u8()? {
            0 => SlabSlot::Vacant {
                next_free: dec.u32()?,
            },
            1 => SlabSlot::Occupied(decode_payload(dec)?),
            _ => {
                return Err(WireError {
                    at,
                    what: "invalid payload slot tag",
                })
            }
        });
    }
    Ok(Slab::from_slots(free_head, slots))
}

fn encode_policy(enc: &mut WireEncoder, policy: &PacketPolicy) {
    match policy {
        PacketPolicy::Flooding(_) => enc.u8(0),
        PacketPolicy::Counter(p) => {
            enc.u8(1);
            enc.u32(p.count());
        }
        PacketPolicy::Distance(p) => {
            enc.u8(2);
            enc.f64(p.min_distance());
        }
        PacketPolicy::Location(p) => {
            enc.u8(3);
            let (uncovered, total) = p.coverage_parts();
            enc.len(uncovered.len());
            for point in uncovered {
                enc.f64(point.x);
                enc.f64(point.y);
            }
            enc.usize(total);
        }
        PacketPolicy::NeighborCoverage(p) => {
            enc.u8(4);
            let pending: Vec<NodeId> = p.pending().collect();
            enc.len(pending.len());
            for n in pending {
                enc.u32(n.index() as u32);
            }
        }
        PacketPolicy::Probabilistic(_) => enc.u8(5),
    }
}

/// Rebuilds a per-packet policy: thresholds and parameters come from the
/// configured scheme, mutable progress from the snapshot.
fn decode_policy(
    dec: &mut WireDecoder<'_>,
    scheme: &SchemeSpec,
) -> Result<PacketPolicy, WireError> {
    let at = dec.position();
    let tag = dec.u8()?;
    let mut policy = scheme.build();
    match (tag, &mut policy) {
        (0, PacketPolicy::Flooding(_)) | (5, PacketPolicy::Probabilistic(_)) => {}
        (1, PacketPolicy::Counter(p)) => p.restore_count(dec.u32()?),
        (2, PacketPolicy::Distance(p)) => p.restore_min_distance(dec.f64()?),
        (3, PacketPolicy::Location(p)) => {
            let count = dec.len()?;
            let mut uncovered = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                uncovered.push(Vec2::new(dec.f64()?, dec.f64()?));
            }
            let total = dec.usize()?;
            p.restore_coverage(uncovered, total);
        }
        (4, PacketPolicy::NeighborCoverage(p)) => {
            let count = dec.len()?;
            let mut pending = BTreeSet::new();
            for _ in 0..count {
                pending.insert(NodeId::new(dec.u32()?));
            }
            p.restore_pending(pending);
        }
        _ => {
            return Err(WireError {
                at,
                what: "policy tag does not match the configured scheme",
            })
        }
    }
    Ok(policy)
}

fn encode_active(enc: &mut WireEncoder, active: &ActivePacket) {
    match active {
        ActivePacket::Assessing { key, policy } => {
            enc.u8(0);
            enc.u64(key.as_raw());
            encode_policy(enc, policy);
        }
        ActivePacket::Queued { handle, policy } => {
            enc.u8(1);
            enc.u64(handle.0);
            encode_policy(enc, policy);
        }
    }
}

fn decode_active(
    dec: &mut WireDecoder<'_>,
    scheme: &SchemeSpec,
) -> Result<ActivePacket, WireError> {
    let at = dec.position();
    Ok(match dec.u8()? {
        0 => ActivePacket::Assessing {
            key: EventKey::from_raw(dec.u64()?),
            policy: decode_policy(dec, scheme)?,
        },
        1 => ActivePacket::Queued {
            handle: FrameHandle(dec.u64()?),
            policy: decode_policy(dec, scheme)?,
        },
        _ => {
            return Err(WireError {
                at,
                what: "invalid active-packet tag",
            })
        }
    })
}

fn encode_ledger(enc: &mut WireEncoder, ledger: &PacketLedger) {
    let (tags, active) = ledger.snapshot_parts();
    enc.len(tags.len());
    for &tag in tags {
        enc.u32(tag);
    }
    let (free_head, slots) = active.export_slots();
    enc.u32(free_head);
    let slots: Vec<_> = slots.collect();
    enc.len(slots.len());
    for slot in slots {
        match slot {
            SlabSlot::Vacant { next_free } => {
                enc.u8(0);
                enc.u32(next_free);
            }
            SlabSlot::Occupied(state) => {
                enc.u8(1);
                encode_active(enc, state);
            }
        }
    }
}

fn decode_ledger(
    dec: &mut WireDecoder<'_>,
    scheme: &SchemeSpec,
) -> Result<PacketLedger, WireError> {
    let count = dec.len()?;
    let mut tags = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        tags.push(dec.u32()?);
    }
    let free_head = dec.u32()?;
    let slot_count = dec.len()?;
    let mut slots = Vec::with_capacity(slot_count.min(1 << 16));
    for _ in 0..slot_count {
        let at = dec.position();
        slots.push(match dec.u8()? {
            0 => SlabSlot::Vacant {
                next_free: dec.u32()?,
            },
            1 => SlabSlot::Occupied(decode_active(dec, scheme)?),
            _ => {
                return Err(WireError {
                    at,
                    what: "invalid ledger slot tag",
                })
            }
        });
    }
    Ok(PacketLedger::from_parts(
        tags,
        Slab::from_slots(free_head, slots),
    ))
}

fn encode_mobility(enc: &mut WireEncoder, mobility: &HostMobility) {
    match mobility {
        HostMobility::Turn(m) => {
            enc.u8(0);
            m.snapshot_into(enc);
        }
        HostMobility::Waypoint(m) => {
            enc.u8(1);
            m.snapshot_into(enc);
        }
        // Stationary hosts have no mutable motion state.
        HostMobility::Fixed(_) => enc.u8(2),
    }
}

fn decode_mobility(
    dec: &mut WireDecoder<'_>,
    mobility: &mut HostMobility,
) -> Result<(), WireError> {
    let at = dec.position();
    match (dec.u8()?, mobility) {
        (0, HostMobility::Turn(m)) => m.restore_snapshot(dec),
        (1, HostMobility::Waypoint(m)) => m.restore_snapshot(dec),
        (2, HostMobility::Fixed(_)) => Ok(()),
        _ => Err(WireError {
            at,
            what: "mobility tag does not match the configured model",
        }),
    }
}

fn encode_carrier_batches(enc: &mut WireEncoder, batches: &Slab<Vec<NodeId>>) {
    let (free_head, slots) = batches.export_slots();
    enc.u32(free_head);
    let slots: Vec<_> = slots.collect();
    enc.len(slots.len());
    for slot in slots {
        match slot {
            SlabSlot::Vacant { next_free } => {
                enc.u8(0);
                enc.u32(next_free);
            }
            SlabSlot::Occupied(hearers) => {
                enc.u8(1);
                enc.len(hearers.len());
                for &n in hearers {
                    enc.u32(n.index() as u32);
                }
            }
        }
    }
}

fn decode_carrier_batches(dec: &mut WireDecoder<'_>) -> Result<Slab<Vec<NodeId>>, WireError> {
    let free_head = dec.u32()?;
    let count = dec.len()?;
    let mut slots = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let at = dec.position();
        slots.push(match dec.u8()? {
            0 => SlabSlot::Vacant {
                next_free: dec.u32()?,
            },
            1 => {
                let hearer_count = dec.len()?;
                let mut hearers = Vec::with_capacity(hearer_count.min(1 << 16));
                for _ in 0..hearer_count {
                    hearers.push(NodeId::new(dec.u32()?));
                }
                SlabSlot::Occupied(hearers)
            }
            _ => {
                return Err(WireError {
                    at,
                    what: "invalid carrier-batch slot tag",
                })
            }
        });
    }
    Ok(Slab::from_slots(free_head, slots))
}

fn encode_suppression(enc: &mut WireEncoder, counts: SuppressionCounts) {
    enc.u64(counts.scheduled);
    enc.u64(counts.inhibited_first_hear);
    enc.u64(counts.cancelled);
    enc.u64(counts.counter_threshold);
    enc.u64(counts.coverage_threshold);
    enc.u64(counts.neighbor_coverage);
    enc.u64(counts.probabilistic);
}

fn decode_suppression(dec: &mut WireDecoder<'_>) -> Result<SuppressionCounts, WireError> {
    Ok(SuppressionCounts {
        scheduled: dec.u64()?,
        inhibited_first_hear: dec.u64()?,
        cancelled: dec.u64()?,
        counter_threshold: dec.u64()?,
        coverage_threshold: dec.u64()?,
        neighbor_coverage: dec.u64()?,
        probabilistic: dec.u64()?,
    })
}

fn encode_scenario_state(enc: &mut WireEncoder, st: &ScenarioState) {
    enc.len(st.active.len());
    for &up in &st.active {
        enc.bool(up);
    }
    enc.u32(st.active_count);
    for &epoch in &st.node_epoch {
        enc.u32(epoch);
    }
    enc.len(st.blackouts.len());
    for &(a, b) in &st.blackouts {
        enc.u32(a);
        enc.u32(b);
    }
    enc.len(st.noise.len());
    for &p in &st.noise {
        enc.f64(p);
    }
    enc.len(st.partitions.len());
    for region in &st.partitions {
        enc.f64(region.x0);
        enc.f64(region.y0);
        enc.f64(region.x1);
        enc.f64(region.y1);
    }
    encode_rng(enc, &st.rng);
    encode_rng(enc, &st.respawn_rng);
    enc.u64(st.respawn_seq);
    enc.u64(st.counts.leaves);
    enc.u64(st.counts.joins);
    enc.u64(st.counts.crashes);
    enc.u64(st.counts.recoveries);
    enc.u64(st.counts.blackout_drops);
    enc.u64(st.counts.partition_drops);
    enc.u64(st.counts.noise_drops);
    st.retired_mac.snapshot_into(enc);
    enc.u64(st.retired_joins);
    enc.u64(st.retired_leaves);
}

/// Overwrites the mutable scenario state; the compiled timeline stays as
/// `World::new` built it from the config.
fn restore_scenario_state(
    dec: &mut WireDecoder<'_>,
    st: &mut ScenarioState,
) -> Result<(), WireError> {
    let hosts_at = dec.position();
    if dec.len()? != st.active.len() {
        return Err(WireError {
            at: hosts_at,
            what: "scenario host count mismatch",
        });
    }
    for up in &mut st.active {
        *up = dec.bool()?;
    }
    st.active_count = dec.u32()?;
    for epoch in &mut st.node_epoch {
        *epoch = dec.u32()?;
    }
    let blackout_count = dec.len()?;
    st.blackouts.clear();
    for _ in 0..blackout_count {
        let a = dec.u32()?;
        let b = dec.u32()?;
        st.blackouts.push((a, b));
    }
    let noise_count = dec.len()?;
    st.noise.clear();
    for _ in 0..noise_count {
        st.noise.push(dec.f64()?);
    }
    let partition_count = dec.len()?;
    st.partitions.clear();
    for _ in 0..partition_count {
        st.partitions.push(manet_scenario::Region {
            x0: dec.f64()?,
            y0: dec.f64()?,
            x1: dec.f64()?,
            y1: dec.f64()?,
        });
    }
    st.rng = decode_rng(dec)?;
    st.respawn_rng = decode_rng(dec)?;
    st.respawn_seq = dec.u64()?;
    st.counts = ScenarioCounts {
        leaves: dec.u64()?,
        joins: dec.u64()?,
        crashes: dec.u64()?,
        recoveries: dec.u64()?,
        blackout_drops: dec.u64()?,
        partition_drops: dec.u64()?,
        noise_drops: dec.u64()?,
    };
    st.retired_mac = MacStats::restore_snapshot(dec)?;
    st.retired_joins = dec.u64()?;
    st.retired_leaves = dec.u64()?;
    Ok(())
}
