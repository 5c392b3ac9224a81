//! The campaign server: transport loops around the queue + scheduler.
//!
//! A session is one full-duplex byte stream speaking MCMP v1 — either
//! the process's stdin/stdout (pipe mode, used by CI and by
//! `manet-client --server`) or one accepted Unix-socket connection. Two
//! loops share the session: a reader thread that admits submissions into
//! the [`CampaignQueue`] (answering `Accepted`/`Rejected` immediately,
//! even while earlier campaigns are still running), and the scheduler
//! loop that pops campaigns and fans each one's jobs out over
//! [`ServerConfig::workers`] scoped threads. The frame writer is the
//! only shared output and is mutex-ordered, so admission replies
//! interleave with streamed results at frame granularity.
//!
//! Sessions end when the client sends `Shutdown` or closes its write
//! side; either way the backlog drains first (a client that wants to
//! abandon queued work cancels the campaigns before hanging up).

use std::io::{self, Read, Write};
use std::sync::Mutex;

use crate::mcmp::{CampaignCounts, Frame, FrameReader, FrameWriter};
use crate::queue::CampaignQueue;
use crate::scheduler::run_campaign;

/// Tuning knobs for [`serve`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Threads that run jobs beside the scheduler thread, which runs
    /// jobs too. `None` auto-detects (`available_parallelism - 1`, so
    /// the scheduler thread's core is counted); `Some(0)` runs jobs
    /// inline on the scheduler thread.
    pub workers: Option<usize>,
    /// Maximum queued (not yet running) jobs across all campaigns.
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: None,
            queue_capacity: 65_536,
        }
    }
}

impl ServerConfig {
    fn worker_threads(&self) -> usize {
        self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(0, |n| n.get().saturating_sub(1))
        })
    }
}

/// What one session did, for logs and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Campaigns popped and run to a summary frame.
    pub campaigns: u64,
    /// Job counters aggregated across those campaigns.
    pub jobs: CampaignCounts,
    /// Whether the client ended the session with an explicit `Shutdown`
    /// frame (as opposed to closing the stream). A socket server uses
    /// this to stop accepting further connections.
    pub shutdown: bool,
}

/// The session reader: admits client frames into the queue until the
/// client shuts down. Returns whether the shutdown was explicit.
///
/// Closes the queue on *every* exit path — the scheduler loop blocks on
/// [`CampaignQueue::pop`], so an early return that skipped the close
/// would deadlock the session.
#[cfg_attr(simlint, serve_loop)]
fn reader_loop<W: Write + Send>(
    input: impl Read,
    queue: &CampaignQueue,
    writer: &Mutex<FrameWriter<W>>,
) -> io::Result<bool> {
    let result = (|| {
        let mut reader = FrameReader::new(input)?;
        loop {
            let frame = match reader.read()? {
                Some(frame) => frame,
                // Clean EOF: the client hung up; drain the backlog.
                None => return Ok(false),
            };
            match frame {
                Frame::Submit { name, jobs } => {
                    let njobs = jobs.len() as u64;
                    // The writer lock is taken *before* `submit`: the
                    // moment the campaign is in the queue the scheduler
                    // can start streaming its results, and `Accepted`
                    // must reach the stream before any frame that
                    // mentions the campaign id. The lock orders them —
                    // a result frame blocks on it until the reply is
                    // out. (Safe against the scheduler side: nothing
                    // there waits on the writer while holding the
                    // queue's lock.)
                    let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
                    let reply = match queue.submit(name.clone(), jobs) {
                        Ok(campaign) => Frame::Accepted {
                            campaign,
                            jobs: njobs,
                        },
                        Err(err) => Frame::Rejected {
                            name,
                            reason: err.to_string(),
                        },
                    };
                    w.write(&reply)?;
                }
                Frame::Cancel { campaign } => {
                    // Best-effort by design: an unknown or finished id is
                    // not a protocol error (the race is inherent).
                    queue.cancel(campaign);
                }
                Frame::Shutdown => return Ok(true),
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected client frame: {other:?}"),
                    ));
                }
            }
        }
    })();
    queue.close();
    result
}

/// The scheduler: pops campaigns until the queue closes and drains, and
/// streams each one's results plus a final summary frame.
#[cfg_attr(simlint, serve_loop)]
fn scheduler_loop<W: Write + Send>(
    queue: &CampaignQueue,
    workers: usize,
    writer: &Mutex<FrameWriter<W>>,
) -> io::Result<(u64, CampaignCounts)> {
    let mut campaigns = 0u64;
    let mut jobs = CampaignCounts::default();
    while let Some(campaign) = queue.pop() {
        let result = run_campaign(&campaign, workers, writer);
        queue.finish(campaign.id);
        let counts = match result {
            Ok(counts) => counts,
            Err(err) => {
                // Transport is dead: refuse the rest of the backlog too.
                queue.close();
                return Err(err);
            }
        };
        campaigns += 1;
        jobs.total += counts.total;
        jobs.completed += counts.completed;
        jobs.cancelled += counts.cancelled;
        jobs.failed += counts.failed;
        let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
        w.write(&Frame::Summary {
            campaign: campaign.id,
            counts,
        })?;
    }
    Ok((campaigns, jobs))
}

/// Serves one MCMP session over the given byte streams, blocking until
/// the client shuts down and the backlog drains.
///
/// # Errors
///
/// The first transport or protocol error on either direction; whichever
/// loop failed first wins (the scheduler's error takes precedence when
/// both report one, since it usually caused the reader's).
pub fn serve(
    input: impl Read + Send,
    output: impl Write + Send,
    config: &ServerConfig,
) -> io::Result<ServeSummary> {
    let workers = config.worker_threads();
    let queue = CampaignQueue::new(config.queue_capacity);
    let writer = Mutex::new(FrameWriter::new(output)?);

    let (reader_result, scheduler_result) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader_loop(input, &queue, &writer));
        let scheduled = scheduler_loop(&queue, workers, &writer);
        // The scheduler only exits once the queue closed, which only the
        // reader loop does — so this join does not hang.
        (reader.join().expect("session reader panicked"), scheduled)
    });

    let (campaigns, jobs) = scheduler_result?;
    let shutdown = reader_result?;
    Ok(ServeSummary {
        campaigns,
        jobs,
        shutdown,
    })
}

/// Binds a Unix socket and serves connections one at a time until a
/// client ends its session with an explicit `Shutdown` frame. A stale
/// socket file at `path` is replaced. Per-connection errors are logged
/// to stderr and the listener keeps accepting.
///
/// # Errors
///
/// Bind/accept failures only — session errors do not stop the server.
#[cfg(unix)]
pub fn serve_unix(path: &std::path::Path, config: &ServerConfig) -> io::Result<()> {
    use std::os::unix::net::UnixListener;

    match std::fs::remove_file(path) {
        Ok(()) => {}
        Err(err) if err.kind() == io::ErrorKind::NotFound => {}
        Err(err) => return Err(err),
    }
    let listener = UnixListener::bind(path)?;
    eprintln!("manet-sim serve: listening on {}", path.display());
    loop {
        let (stream, _addr) = listener.accept()?;
        let input = stream.try_clone()?;
        match serve(input, stream, config) {
            Ok(summary) => {
                eprintln!(
                    "manet-sim serve: session done: {} campaigns, {} jobs ({} completed, {} cancelled, {} failed)",
                    summary.campaigns,
                    summary.jobs.total,
                    summary.jobs.completed,
                    summary.jobs.cancelled,
                    summary.jobs.failed,
                );
                if summary.shutdown {
                    return Ok(());
                }
            }
            Err(err) => eprintln!("manet-sim serve: session failed: {err}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcmp::{JobEnvelope, MCMP_MAGIC, MCMP_VERSION};
    use manet_sim_engine::WireEncoder;

    fn job(label: &str, seed: u64) -> JobEnvelope {
        JobEnvelope {
            label: label.into(),
            scheme: "flooding".into(),
            map_units: 1,
            hosts: 6,
            broadcasts: 1,
            seed,
            repeats: 1,
            scenario: None,
        }
    }

    /// Encodes a client session (header + frames) into raw bytes.
    fn client_script(frames: &[Frame]) -> Vec<u8> {
        let mut out = Vec::new();
        crate::mcmp::write_stream_header(&mut out).unwrap();
        for frame in frames {
            let mut enc = WireEncoder::new();
            frame.encode(&mut enc);
            let payload = enc.into_bytes();
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&payload);
        }
        out
    }

    fn server_frames(bytes: &[u8]) -> Vec<Frame> {
        let mut reader = FrameReader::new(bytes).unwrap();
        let mut frames = Vec::new();
        while let Some(frame) = reader.read().unwrap() {
            frames.push(frame);
        }
        frames
    }

    fn quick_config() -> ServerConfig {
        ServerConfig {
            workers: Some(2),
            queue_capacity: 1024,
        }
    }

    #[test]
    fn pipe_session_runs_a_campaign_to_summary() {
        let input = client_script(&[
            Frame::Submit {
                name: "smoke".into(),
                jobs: vec![job("a", 1), job("b", 2)],
            },
            Frame::Shutdown,
        ]);
        let mut output = Vec::new();
        let summary = serve(&input[..], &mut output, &quick_config()).unwrap();
        assert_eq!(summary.campaigns, 1);
        assert_eq!(summary.jobs.completed, 2);
        assert!(summary.shutdown);

        let frames = server_frames(&output);
        assert!(matches!(frames[0], Frame::Accepted { jobs: 2, .. }));
        let metrics = frames
            .iter()
            .filter(|f| matches!(f, Frame::JobMetrics { .. }))
            .count();
        assert_eq!(metrics, 2);
        assert!(matches!(
            frames.last(),
            Some(Frame::Summary {
                counts: CampaignCounts {
                    total: 2,
                    completed: 2,
                    ..
                },
                ..
            })
        ));
    }

    #[test]
    fn eof_without_shutdown_still_drains_the_backlog() {
        let input = client_script(&[Frame::Submit {
            name: "eof".into(),
            jobs: vec![job("only", 7)],
        }]);
        let mut output = Vec::new();
        let summary = serve(&input[..], &mut output, &quick_config()).unwrap();
        assert_eq!(summary.jobs.completed, 1);
        assert!(!summary.shutdown, "EOF is not an explicit shutdown");
    }

    #[test]
    fn oversubmitting_the_queue_is_rejected_not_fatal() {
        let config = ServerConfig {
            workers: Some(0),
            queue_capacity: 1,
        };
        let input = client_script(&[
            Frame::Submit {
                name: "too-big".into(),
                jobs: vec![job("a", 1), job("b", 2)],
            },
            Frame::Submit {
                name: "fits".into(),
                jobs: vec![job("c", 3)],
            },
            Frame::Shutdown,
        ]);
        let mut output = Vec::new();
        let summary = serve(&input[..], &mut output, &config).unwrap();
        assert_eq!(summary.campaigns, 1, "only the fitting campaign ran");
        let frames = server_frames(&output);
        assert!(matches!(
            &frames[0],
            Frame::Rejected { name, .. } if name == "too-big"
        ));
    }

    #[test]
    fn server_frames_from_client_are_protocol_errors() {
        let input = client_script(&[Frame::Progress {
            campaign: 1,
            counts: CampaignCounts::default(),
        }]);
        let mut output = Vec::new();
        let err = serve(&input[..], &mut output, &quick_config()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn garbage_header_fails_the_session() {
        let mut input = Vec::from(*MCMP_MAGIC);
        input.extend_from_slice(&(MCMP_VERSION + 1).to_le_bytes());
        let mut output = Vec::new();
        let err = serve(&input[..], &mut output, &quick_config()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
