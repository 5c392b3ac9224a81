//! Campaign-server benchmarks: the batch throughput the `manet-sim
//! serve` mode is judged by, measured in-process so the numbers isolate
//! the scheduler and protocol from transport and process startup.
//!
//! One iteration of the scheduler benches runs a whole campaign of
//! small jobs through [`run_campaign`] into a sink — admission, the
//! job fan-out, metrics rendering, and MCMP framing included.
//! `BENCH_campaign.json` at the workspace root records the trajectory;
//! `BENCH_campaign_baseline.json` is the `bench_gate` reference.

use std::hint::black_box;
use std::sync::Mutex;

use broadcast_core::CancelToken;
use manet_bench::harness::Suite;
use manet_campaign::{run_campaign, CampaignQueue, FrameWriter, JobEnvelope, QueuedCampaign};
use manet_sim_engine::WireEncoder;

/// The scheduler workload: small jobs (the sweep shape campaigns are
/// for), all valid, cycling seeds so no two jobs share an RNG stream.
fn small_jobs(count: u64) -> Vec<JobEnvelope> {
    (0..count)
        .map(|i| JobEnvelope {
            label: format!("j{i}"),
            scheme: "counter:3".into(),
            map_units: 1,
            hosts: 10,
            broadcasts: 2,
            seed: 1 + i,
            repeats: 1,
            scenario: None,
        })
        .collect()
}

/// A full campaign per iteration, streamed into a sink: jobs/sec of the
/// serve path minus the transport. Worker counts bracket the executor —
/// 0 is the inline (no threads) floor, 2 the smallest real fan-out.
fn scheduler_throughput(s: &mut Suite) {
    for (name, workers) in [
        ("campaign/sched_50jobs_inline", 0usize),
        ("campaign/sched_50jobs_2workers", 2),
    ] {
        let jobs = small_jobs(50);
        s.bench(name, move || {
            let campaign = QueuedCampaign {
                id: 1,
                name: "bench".into(),
                jobs: jobs.clone(),
                cancel: CancelToken::new(),
            };
            let writer = Mutex::new(FrameWriter::new(std::io::sink()).expect("sink header"));
            let counts = run_campaign(&campaign, workers, &writer).expect("sink write");
            assert_eq!(counts.completed, 50);
            black_box(counts)
        });
    }
}

/// Admission control alone: submit a 1000-job campaign and drain it,
/// without running anything. This is the queue overhead a submit pays
/// before the first job starts.
fn queue_admission(s: &mut Suite) {
    let jobs = small_jobs(1_000);
    s.bench("campaign/queue_submit_drain_1000jobs", move || {
        let queue = CampaignQueue::new(2_000);
        let id = queue
            .submit("bench".into(), jobs.clone())
            .expect("capacity");
        queue.close();
        let campaign = queue.pop().expect("one campaign");
        queue.finish(campaign.id);
        black_box((id, campaign.jobs.len()))
    });
}

/// Protocol overhead: encode and decode one metrics frame with a
/// realistic (~2 KiB) payload — the per-job cost MCMP framing adds on
/// top of the simulation itself.
fn frame_roundtrip(s: &mut Suite) {
    use manet_campaign::Frame;
    let frame = Frame::JobMetrics {
        campaign: 1,
        job: 17,
        label: "j17".into(),
        payload: vec![b'x'; 2_048],
    };
    s.bench("campaign/mcmp_metrics_frame_roundtrip", move || {
        let mut enc = WireEncoder::new();
        frame.encode(&mut enc);
        let decoded = Frame::decode(enc.as_slice()).expect("roundtrip");
        black_box(decoded)
    });
}

fn main() {
    let mut suite = Suite::from_args("campaign");
    scheduler_throughput(&mut suite);
    queue_admission(&mut suite);
    frame_roundtrip(&mut suite);
    suite.finish();
}
