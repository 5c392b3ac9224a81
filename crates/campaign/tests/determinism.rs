//! Placement invariance: a 50-job campaign streams per-job metrics that
//! are byte-identical whatever the worker count, and identical to what
//! the one-shot CLI pipeline produces for the same parameters. This is
//! the contract that makes the campaign server a cache-friendly batch
//! front-end rather than a new source of nondeterminism.

use std::collections::BTreeMap;
use std::sync::Mutex;

use broadcast_core::{CancelToken, SchemeSpec, SimConfig, World};
use manet_campaign::{run_campaign, Frame, FrameReader, FrameWriter, JobEnvelope, QueuedCampaign};

const SCHEMES: &[&str] = &["flooding", "counter:3", "distance:250", "ac", "al", "nc"];

/// Fifty small jobs cycling through every scheme, with varying seeds and
/// an occasional multi-repeat job.
fn fifty_jobs() -> Vec<JobEnvelope> {
    (0..50u64)
        .map(|i| JobEnvelope {
            label: format!("job{i:02}"),
            scheme: SCHEMES[(i as usize) % SCHEMES.len()].to_string(),
            map_units: 1,
            hosts: 10,
            broadcasts: 2,
            seed: 100 + i,
            repeats: if i % 10 == 0 { 2 } else { 1 },
            scenario: None,
        })
        .collect()
}

/// Runs the campaign on `workers` threads beside the caller and returns
/// label → streamed metrics bytes, asserting every job completed.
fn run_with_workers(jobs: &[JobEnvelope], workers: usize) -> BTreeMap<String, Vec<u8>> {
    let campaign = QueuedCampaign {
        id: 1,
        name: "determinism".into(),
        jobs: jobs.to_vec(),
        cancel: CancelToken::new(),
    };
    let writer = Mutex::new(FrameWriter::new(Vec::new()).expect("header"));
    let counts = run_campaign(&campaign, workers, &writer).expect("run campaign");
    assert_eq!(counts.completed, jobs.len() as u64, "{workers} workers");
    assert_eq!(counts.failed, 0);
    assert_eq!(counts.cancelled, 0);

    let bytes = writer
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_inner();
    let mut reader = FrameReader::new(&bytes[..]).expect("stream header");
    let mut metrics = BTreeMap::new();
    while let Some(frame) = reader.read().expect("read frame") {
        if let Frame::JobMetrics { label, payload, .. } = frame {
            let duplicate = metrics.insert(label.clone(), payload);
            assert!(duplicate.is_none(), "label {label} streamed twice");
        }
    }
    assert_eq!(metrics.len(), jobs.len());
    metrics
}

/// The one-shot pipeline for one envelope: the same config construction
/// and the same metrics rendering `manet-sim --metrics` uses.
fn one_shot_metrics(job: &JobEnvelope) -> Vec<u8> {
    let scheme = SchemeSpec::parse(&job.scheme).expect("scheme");
    let reports: Vec<_> = (job.seed..job.seed + u64::from(job.repeats))
        .map(|seed| {
            let config = SimConfig::builder(job.map_units, scheme.clone())
                .hosts(job.hosts)
                .broadcasts(job.broadcasts)
                .seed(seed)
                .build();
            World::new(config).run()
        })
        .collect();
    let record = manet_experiments::metrics_record(&reports);
    manet_experiments::render_metrics_json("single", &[("manet-sim".to_string(), vec![record])])
        .into_bytes()
}

/// The tentpole guarantee: per-job metrics are byte-identical across
/// worker counts 0 (inline), 1, and 3, and equal to the one-shot
/// pipeline's output for every one of the 50 jobs.
#[test]
fn fifty_job_campaign_is_placement_invariant() {
    let jobs = fifty_jobs();
    let inline = run_with_workers(&jobs, 0);
    let single = run_with_workers(&jobs, 1);
    let three = run_with_workers(&jobs, 3);
    assert_eq!(inline, single, "0 vs 1 workers");
    assert_eq!(inline, three, "0 vs 3 workers");
    for job in &jobs {
        assert_eq!(
            inline[&job.label],
            one_shot_metrics(job),
            "{} drifted from the one-shot pipeline",
            job.label
        );
    }
}
