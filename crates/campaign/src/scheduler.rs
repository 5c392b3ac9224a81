//! Work-stealing campaign scheduler.
//!
//! Jobs are index-addressed into the sim-engine [`fan_out`]: its shared
//! claim cursor *is* the work-stealing — whichever thread frees up first
//! claims the next unstarted job, so a long job never blocks the queue
//! behind it. Every job is itself a deterministic
//! simulation, which makes results placement-invariant: the per-job
//! metrics bytes are identical for any worker count, only the completion
//! (and therefore streaming) order varies.
//!
//! Each completed job streams one [`Frame::JobMetrics`] carrying the
//! exact `manet-broadcast-metrics/1` document the one-shot CLI would
//! have written, followed by a compact [`Frame::Progress`] tick —
//! integers, not a re-serialized report. Cancellation is cooperative at
//! two levels: unstarted jobs observe the token before building a world,
//! and in-flight worlds drain at their next
//! [`advance_until`](broadcast_core::World::advance_until) pause
//! boundary via [`World::run_cancellable`](broadcast_core::World).

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use broadcast_core::trace::NoopObserver;
use broadcast_core::{CancelToken, Scenario, SchemeSpec, SimConfig, World};
use manet_sim_engine::{fan_out, SimDuration};

use crate::mcmp::{CampaignCounts, Frame, FrameWriter, JobEnvelope};
use crate::queue::QueuedCampaign;

/// Simulated-time slice between cancellation checks of a running world.
/// Small enough that a cancel drains within milliseconds of wall time;
/// large enough that the pause checks are invisible in the profile.
const CANCEL_SLICE: SimDuration = SimDuration::from_millis(100);

/// How one job ended.
enum JobOutcome {
    /// The metrics JSON to stream.
    Completed(String),
    /// The cancel token was raised before or during the run.
    Cancelled,
    /// The envelope could not be turned into a valid run.
    Failed(String),
}

/// Validates an envelope and expands it into one config per repeat
/// (seeds `seed..seed + repeats`), mirroring the experiment harness.
///
/// # Errors
///
/// Returns the first problem as a human-readable string; nothing in the
/// returned configs can make [`SimConfig::validate`] fail, so the
/// builder below never panics on wire input.
fn job_configs(job: &JobEnvelope) -> Result<Vec<SimConfig>, String> {
    let scheme = SchemeSpec::parse(&job.scheme)?;
    if job.map_units == 0 || job.hosts == 0 || job.broadcasts == 0 {
        return Err("map, hosts, and broadcasts must be nonzero".into());
    }
    if job.repeats == 0 {
        return Err("repeats must be nonzero".into());
    }
    let last_seed = job
        .seed
        .checked_add(u64::from(job.repeats) - 1)
        .ok_or("seed + repeats overflows")?;
    let scenario = match &job.scenario {
        Some(text) => {
            let scenario = Scenario::parse(text).map_err(|e| format!("scenario: {e}"))?;
            scenario
                .validate(job.hosts)
                .map_err(|e| format!("scenario: {e}"))?;
            Some(scenario)
        }
        None => None,
    };
    Ok((job.seed..=last_seed)
        .map(|seed| {
            let mut builder = SimConfig::builder(job.map_units, scheme.clone())
                .hosts(job.hosts)
                .broadcasts(job.broadcasts)
                .seed(seed);
            if let Some(scenario) = &scenario {
                builder = builder.scenario(scenario.clone());
            }
            builder.build()
        })
        .collect())
}

/// Runs one job to its metrics document, observing `cancel` at pause
/// boundaries.
fn execute_job(job: &JobEnvelope, cancel: &CancelToken) -> JobOutcome {
    let configs = match job_configs(job) {
        Ok(configs) => configs,
        Err(reason) => return JobOutcome::Failed(reason),
    };
    let mut reports = Vec::with_capacity(configs.len());
    for config in configs {
        match World::new(config).run_cancellable(cancel, CANCEL_SLICE, &mut NoopObserver) {
            Some(report) => reports.push(report),
            None => return JobOutcome::Cancelled,
        }
    }
    // The exact document the one-shot CLI writes for `--metrics`: same
    // figure id, same scale tag, same record shape — which is what makes
    // a streamed job result `cmp`-equal to its CLI counterpart.
    let record = manet_experiments::metrics_record(&reports);
    let json = manet_experiments::render_metrics_json(
        "single",
        &[("manet-sim".to_string(), vec![record])],
    );
    JobOutcome::Completed(json)
}

/// Runs a campaign on the calling thread plus `workers` scoped threads
/// (`0` runs every job inline), streaming results into `writer`.
/// Returns the final counters (also already streamed as the summary's
/// contents — the caller writes the [`Frame::Summary`] so it can order
/// it after its own bookkeeping).
///
/// # Errors
///
/// The first transport error, after every thread has stopped. Jobs that
/// finished after the error are counted but not streamed.
pub fn run_campaign<W: Write + Send>(
    campaign: &QueuedCampaign,
    workers: usize,
    writer: &Mutex<FrameWriter<W>>,
) -> io::Result<CampaignCounts> {
    let counts = Mutex::new(CampaignCounts {
        total: campaign.jobs.len() as u64,
        ..Default::default()
    });
    let error: Mutex<Option<io::Error>> = Mutex::new(None);
    // Raised on the first transport error: the session is dead, so
    // remaining jobs drain as cancelled instead of simulating into a
    // closed pipe.
    let abort = AtomicBool::new(false);

    fan_out(campaign.jobs.len(), workers, |index| {
        let job = &campaign.jobs[index];
        if campaign.cancel.is_cancelled() || abort.load(Ordering::Acquire) {
            let mut c = counts.lock().unwrap_or_else(|e| e.into_inner());
            c.cancelled += 1;
            return;
        }
        let outcome = execute_job(job, &campaign.cancel);
        // Writer lock first, counts second (and only briefly): ticks are
        // snapshotted in the order they hit the stream, so a reader sees
        // monotone counters.
        let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
        let (result_frame, tick) = {
            let mut c = counts.lock().unwrap_or_else(|e| e.into_inner());
            let frame = match outcome {
                JobOutcome::Completed(json) => {
                    c.completed += 1;
                    Some(Frame::JobMetrics {
                        campaign: campaign.id,
                        job: index as u64,
                        label: job.label.clone(),
                        payload: json.into_bytes(),
                    })
                }
                JobOutcome::Failed(reason) => {
                    c.failed += 1;
                    Some(Frame::JobFailed {
                        campaign: campaign.id,
                        job: index as u64,
                        label: job.label.clone(),
                        reason,
                    })
                }
                JobOutcome::Cancelled => {
                    c.cancelled += 1;
                    None
                }
            };
            (frame, *c)
        };
        if let Some(frame) = result_frame {
            let written = w.write(&frame).and_then(|()| {
                w.write(&Frame::Progress {
                    campaign: campaign.id,
                    counts: tick,
                })
            });
            if let Err(err) = written {
                abort.store(true, Ordering::Release);
                let mut slot = error.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(err);
            }
        }
    });

    let final_counts = *counts.lock().unwrap_or_else(|e| e.into_inner());
    match error.into_inner().unwrap_or_else(|e| e.into_inner()) {
        Some(err) => Err(err),
        None => Ok(final_counts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(label: &str, seed: u64) -> JobEnvelope {
        JobEnvelope {
            label: label.into(),
            scheme: "counter:3".into(),
            map_units: 1,
            hosts: 8,
            broadcasts: 2,
            seed,
            repeats: 1,
            scenario: None,
        }
    }

    fn campaign(jobs: Vec<JobEnvelope>) -> QueuedCampaign {
        QueuedCampaign {
            id: 1,
            name: "t".into(),
            jobs,
            cancel: CancelToken::new(),
        }
    }

    fn stream_frames(bytes: &[u8]) -> Vec<Frame> {
        let mut reader = crate::mcmp::FrameReader::new(bytes).unwrap();
        let mut frames = Vec::new();
        while let Some(frame) = reader.read().unwrap() {
            frames.push(frame);
        }
        frames
    }

    #[test]
    fn invalid_envelopes_fail_without_panicking() {
        for bad in [
            JobEnvelope {
                scheme: "bogus".into(),
                ..envelope("a", 1)
            },
            JobEnvelope {
                map_units: 0,
                ..envelope("b", 1)
            },
            JobEnvelope {
                repeats: 0,
                ..envelope("c", 1)
            },
            JobEnvelope {
                seed: u64::MAX,
                repeats: 2,
                ..envelope("d", 1)
            },
            JobEnvelope {
                scenario: Some("not a scenario".into()),
                ..envelope("e", 1)
            },
        ] {
            assert!(job_configs(&bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn repeats_expand_to_consecutive_seeds() {
        let configs = job_configs(&JobEnvelope {
            repeats: 3,
            ..envelope("r", 10)
        })
        .unwrap();
        assert_eq!(
            configs.iter().map(|c| c.seed).collect::<Vec<_>>(),
            [10, 11, 12]
        );
    }

    #[test]
    fn campaign_streams_metrics_and_monotone_ticks() {
        let jobs: Vec<_> = (0..6).map(|i| envelope(&format!("j{i}"), i)).collect();
        let campaign = campaign(jobs);
        let writer = Mutex::new(FrameWriter::new(Vec::new()).unwrap());
        let counts = run_campaign(&campaign, 2, &writer).unwrap();
        assert_eq!((counts.total, counts.completed), (6, 6));
        let frames = stream_frames(&writer.into_inner().unwrap().into_inner());
        let mut seen = CampaignCounts::default();
        let mut metrics = 0;
        for frame in frames {
            match frame {
                Frame::JobMetrics { payload, .. } => {
                    metrics += 1;
                    assert!(payload.starts_with(b"{"));
                }
                Frame::Progress { counts, .. } => {
                    assert!(counts.completed >= seen.completed, "monotone ticks");
                    seen = counts;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(metrics, 6);
        assert_eq!(seen.completed, 6, "last tick covers every job");
    }

    #[test]
    fn failed_jobs_stream_failures_and_count() {
        let campaign = campaign(vec![
            envelope("good", 1),
            JobEnvelope {
                scheme: "bogus".into(),
                ..envelope("bad", 2)
            },
        ]);
        let writer = Mutex::new(FrameWriter::new(Vec::new()).unwrap());
        let counts = run_campaign(&campaign, 0, &writer).unwrap();
        assert_eq!((counts.completed, counts.failed), (1, 1));
        let frames = stream_frames(&writer.into_inner().unwrap().into_inner());
        assert!(frames.iter().any(|f| matches!(
            f,
            Frame::JobFailed { label, .. } if label == "bad"
        )));
    }

    #[test]
    fn pre_cancelled_campaign_runs_nothing() {
        let campaign = campaign((0..5).map(|i| envelope(&format!("j{i}"), i)).collect());
        campaign.cancel.cancel();
        let writer = Mutex::new(FrameWriter::new(Vec::new()).unwrap());
        let counts = run_campaign(&campaign, 2, &writer).unwrap();
        assert_eq!((counts.cancelled, counts.completed), (5, 0));
        let frames = stream_frames(&writer.into_inner().unwrap().into_inner());
        assert!(frames.is_empty(), "no result frames for cancelled jobs");
    }
}
