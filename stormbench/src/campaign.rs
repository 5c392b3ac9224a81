//! A closed-loop MCMP client driving an in-process `manet_campaign::serve`
//! session over two OS pipes.

use std::io::{self, PipeReader, PipeWriter};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use manet_campaign::{
    serve, CampaignCounts, Frame, FrameReader, FrameWriter, JobEnvelope, ServeSummary, ServerConfig,
};

/// One live session: the client's ends of both pipes and the server
/// thread.
pub struct Session {
    writer: FrameWriter<PipeWriter>,
    reader: FrameReader<PipeReader>,
    server: JoinHandle<io::Result<ServeSummary>>,
    /// From the `serve` spawn until the server's stream header arrived
    /// (pool spin-up included).
    pub setup: Duration,
    /// Every frame sent and received, when capture is on.
    pub captured: Option<Vec<Frame>>,
}

/// How one campaign went.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// Jobs submitted.
    pub jobs: u64,
    /// `JobFailed` + jobs of a rejected campaign + jobs missing from the
    /// summary.
    pub failed: u64,
    /// `Summary.completed`, or 0 for a rejected campaign.
    pub completed: u64,
    /// From `Submit` to the campaign's `Summary` (or `Rejected`).
    pub wall: Duration,
    /// From `Submit` to `Accepted` (or `Rejected`).
    pub admission: Duration,
    /// Streamed `JobMetrics` payloads by job index.
    pub payloads: Vec<Option<Vec<u8>>>,
    /// Protocol surprises (frames for another campaign, duplicates).
    pub errors: Vec<String>,
}

impl Session {
    /// Spawns `serve` and completes the stream handshake.
    ///
    /// # Errors
    ///
    /// Pipe creation or handshake failures.
    pub fn start(config: ServerConfig, capture: bool) -> io::Result<Session> {
        let (server_in, client_out) = io::pipe()?;
        let (client_in, server_out) = io::pipe()?;
        let t0 = Instant::now();
        let server = std::thread::spawn(move || serve(server_in, server_out, &config));
        let reader = FrameReader::new(client_in)?;
        let setup = t0.elapsed();
        let writer = FrameWriter::new(client_out)?;
        Ok(Session {
            writer,
            reader,
            server,
            setup,
            captured: capture.then(Vec::new),
        })
    }

    fn send(&mut self, frame: Frame) -> io::Result<()> {
        self.writer.write(&frame)?;
        if let Some(frames) = &mut self.captured {
            frames.push(frame);
        }
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Frame> {
        let frame = self.reader.read()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the session")
        })?;
        if let Some(frames) = &mut self.captured {
            frames.push(frame.clone());
        }
        Ok(frame)
    }

    /// Submits `jobs` as one campaign and reads until its summary.
    ///
    /// # Errors
    ///
    /// Transport errors, or the server ending the stream early.
    pub fn campaign(&mut self, name: &str, jobs: &[JobEnvelope]) -> io::Result<CampaignRun> {
        let submit = Frame::Submit {
            name: name.to_string(),
            jobs: jobs.to_vec(),
        };
        let mut run = CampaignRun {
            jobs: jobs.len() as u64,
            failed: 0,
            completed: 0,
            wall: Duration::ZERO,
            admission: Duration::ZERO,
            payloads: vec![None; jobs.len()],
            errors: Vec::new(),
        };
        let t0 = Instant::now();
        self.send(submit)?;
        let mut id = None;
        let mut job_failed = 0u64;
        let counts: CampaignCounts = loop {
            match self.recv()? {
                Frame::Accepted { campaign, jobs: n } => {
                    run.admission = t0.elapsed();
                    if n != run.jobs {
                        run.errors
                            .push(format!("accepted {n} of {} jobs", run.jobs));
                    }
                    id = Some(campaign);
                }
                Frame::Rejected { reason, .. } => {
                    run.admission = t0.elapsed();
                    run.wall = run.admission;
                    run.failed = run.jobs;
                    run.errors.push(format!("campaign rejected: {reason}"));
                    return Ok(run);
                }
                Frame::JobMetrics {
                    campaign,
                    job,
                    payload,
                    ..
                } => {
                    let slot = usize::try_from(job)
                        .ok()
                        .and_then(|j| run.payloads.get_mut(j));
                    match slot {
                        Some(slot) if Some(campaign) == id && slot.is_none() => {
                            *slot = Some(payload)
                        }
                        _ => run
                            .errors
                            .push(format!("unexpected metrics for job {campaign}/{job}")),
                    }
                }
                Frame::JobFailed { reason, label, .. } => {
                    job_failed += 1;
                    run.errors.push(format!("job {label} failed: {reason}"));
                }
                Frame::Progress { .. } => {}
                Frame::Summary { campaign, counts } if Some(campaign) == id => break counts,
                other => run.errors.push(format!("unexpected frame {other:?}")),
            }
        };
        run.wall = t0.elapsed();
        run.completed = counts.completed;
        let missing = run.jobs.saturating_sub(counts.completed + job_failed);
        run.failed = job_failed + missing;
        if counts.total != run.jobs {
            run.errors
                .push(format!("summary total {} != {}", counts.total, run.jobs));
        }
        Ok(run)
    }

    /// Sends `Shutdown`, drains the stream and joins the server.
    ///
    /// # Errors
    ///
    /// Transport errors, a server-side session error, or a server panic.
    pub fn shutdown(mut self) -> io::Result<(ServeSummary, Option<Vec<Frame>>)> {
        self.send(Frame::Shutdown)?;
        let Session {
            writer,
            mut reader,
            server,
            captured,
            ..
        } = self;
        drop(writer);
        while reader.read()?.is_some() {}
        let summary = server
            .join()
            .map_err(|_| io::Error::other("campaign server panicked"))??;
        Ok((summary, captured))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn tiny_jobs(n: usize) -> Vec<JobEnvelope> {
        Workload::CampaignTiny.storms(1)[..n]
            .iter()
            .map(|s| s.envelope())
            .collect()
    }

    #[test]
    fn a_bad_scheme_counts_as_failed_without_hanging() {
        let mut jobs = tiny_jobs(3);
        jobs[1].scheme = "no-such-scheme".into();
        let mut session = Session::start(ServerConfig::default(), false).unwrap();
        let run = session.campaign("bad", &jobs).unwrap();
        assert_eq!(run.jobs, 3);
        assert_eq!(run.failed, 1);
        assert_eq!(run.completed, 2);
        assert!(run.payloads[1].is_none());
        assert!(run.payloads[0].is_some() && run.payloads[2].is_some());
        let (summary, _) = session.shutdown().unwrap();
        assert_eq!(summary.jobs.failed, 1);
    }

    #[test]
    fn streamed_payloads_equal_one_shot_rendering() {
        let storms = &Workload::CampaignTiny.storms(4)[..4];
        let jobs: Vec<JobEnvelope> = storms.iter().map(|s| s.envelope()).collect();
        let mut session = Session::start(ServerConfig::default(), true).unwrap();
        let run = session.campaign("ok", &jobs).unwrap();
        assert!(run.errors.is_empty(), "{:?}", run.errors);
        assert_eq!((run.failed, run.completed), (0, 4));
        for (storm, payload) in storms.iter().zip(&run.payloads) {
            let one_shot =
                crate::storm::render_job(broadcast_core::World::new(storm.config()).run());
            assert_eq!(payload.as_deref(), Some(one_shot.as_bytes()));
        }
        let (summary, frames) = session.shutdown().unwrap();
        assert!(summary.shutdown);
        // Submit, Accepted, 4 × (JobMetrics, Progress), Summary, Shutdown.
        assert_eq!(frames.unwrap().len(), 12);
    }
}
