//! `stormbench`: the simulator's end-to-end benchmark.
//!
//! ```text
//! stormbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! stormbench --pin
//! ```
//!
//! With `--trace 0` it times the workload for `--seconds` and prints the
//! end-to-end metrics; with `--trace 1` it runs the workload's inputs
//! once with the loop profiler and action recording on and prints the
//! per-layer metrics. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the machine block. Any output mismatch exits 1. `--pin` prints the
//! digest lines of `pinned_digests.txt`. See `README.md`.

mod campaign;
mod layers;
mod report;
mod stats;
mod storm;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use manet_campaign::{JobEnvelope, ServerConfig};

use crate::campaign::Session;
use crate::report::{Metric, Outcome};
use crate::stats::median;
use crate::storm::{report_digest, run_pass, set_digest, trace_storms, Pass};
use crate::workloads::{StormSpec, Workload, DEFAULT_SEED};

/// Fewest timed passes (storm sets or campaigns) in a run, whatever
/// `--seconds` says: the medians need them.
const MIN_PASSES: usize = 3;
/// Campaign sessions started (and shut down) per run to sample set-up.
const SETUP_SESSIONS: usize = 50;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: stormbench --workload <storm_paper|storm_10k|campaign_paper|campaign_tiny> \
--seed <n> --seconds <s> --trace <0|1>\n       stormbench --pin";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or(bad("workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or(bad("seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--pin"] {
        pin();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("stormbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.trace, args.workload.is_campaign()) {
        (false, false) => storm_e2e(&args),
        (false, true) => campaign_e2e(&args),
        (true, _) => traced(&args),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("stormbench: {}: {err}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for err in &outcome.errors {
        eprintln!("stormbench: {}: {err}", args.workload.name());
    }
    println!(
        "{}",
        report::machine_json(&args.workload, args.seed, args.trace)
    );
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The storms' simulator configurations.
fn configs(storms: &[StormSpec]) -> Vec<broadcast_core::SimConfig> {
    storms.iter().map(StormSpec::config).collect()
}

/// Runs the workload's canary storm (the last storm of the default-seed
/// set, checked on every seed) and compares it with `pinned_digests.txt`.
/// Runs before timing starts, so it also warms the program up.
fn check_canary(workload: Workload, errors: &mut Vec<String>) -> Result<(), String> {
    let pin = report::pinned(workload)?;
    let storms = workload.storms(DEFAULT_SEED);
    let canary = storms.last().expect("workloads are not empty");
    let digest = report_digest(&broadcast_core::World::new(canary.config()).run());
    if digest != pin.canary_digest {
        errors.push(format!(
            "canary {} digest {digest:016x} != pinned {:016x}",
            canary.label, pin.canary_digest
        ));
    }
    Ok(())
}

/// On the default seed, compares the whole set's digest with
/// `pinned_digests.txt`.
fn check_set(
    workload: Workload,
    seed: u64,
    digests: &[u64],
    errors: &mut Vec<String>,
) -> Result<(), String> {
    let pin = report::pinned(workload)?;
    if seed == DEFAULT_SEED && set_digest(digests) != pin.set_digest {
        errors.push(format!(
            "set digest {:016x} != pinned {:016x}",
            set_digest(digests),
            pin.set_digest
        ));
    }
    Ok(())
}

/// Runs `pass` until `seconds` have passed and at least [`MIN_PASSES`]
/// ran.
fn repeat<T>(seconds: u64, mut pass: impl FnMut() -> Result<T, String>) -> Result<Vec<T>, String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        passes.push(pass()?);
    }
    Ok(passes)
}

fn secs(values: impl Iterator<Item = Duration>) -> Vec<f64> {
    values.map(|d| d.as_secs_f64()).collect()
}

/// The median of `samples`, after printing them and their quartiles to
/// stderr.
fn summarize(name: &str, samples: &[f64]) -> f64 {
    let m = median(samples);
    let (q1, q3) = stats::quartiles(samples);
    eprintln!(
        "stormbench: {name}: median {m:.6} q1 {q1:.6} q3 {q3:.6} n {} {samples:.4?}",
        samples.len()
    );
    m
}

/// Σ over storms of each storm's median time across passes.
fn per_storm_medians(passes: &[Pass], field: fn(&Pass) -> &[Duration]) -> f64 {
    (0..field(&passes[0]).len())
        .map(|i| median(&secs(passes.iter().map(|p| field(p)[i]))))
        .sum()
}

/// `storm_*`, untraced: repeated passes over the storm set. A storm's
/// time is its median over the passes; the set's time is the sum.
fn storm_e2e(args: &Args) -> Result<Outcome, String> {
    let storms = args.workload.storms(args.seed);
    let configs = configs(&storms);
    let mut errors = Vec::new();
    check_canary(args.workload, &mut errors)?;
    let passes: Vec<Pass> = repeat(args.seconds, || Ok(run_pass(&configs)))?;
    if passes.iter().any(|p| p.digests != passes[0].digests) {
        errors.push("storm reports differ between passes".into());
    }
    check_set(args.workload, args.seed, &passes[0].digests, &mut errors)?;
    summarize(
        "pass_run_s",
        &passes
            .iter()
            .map(|p| secs(p.run.iter().copied()).iter().sum())
            .collect::<Vec<f64>>(),
    );
    let run_s = per_storm_medians(&passes, |p| &p.run);
    let metrics = vec![
        Metric::new("setup_s", per_storm_medians(&passes, |p| &p.setup), "s"),
        Metric::new("run_s", run_s, "s"),
        Metric::new("jobs_per_s", storms.len() as f64 / run_s, "jobs/s"),
        Metric::new("peak_rss_mb", report::peak_rss_mb()?, "MiB"),
    ];
    Ok(Outcome {
        attempted: (storms.len() * passes.len()) as u64,
        failed: 0,
        metrics,
        errors,
    })
}

/// One-shot reference documents and digests for a campaign's jobs, run
/// in-process on this thread.
fn one_shot(storms: &[StormSpec]) -> (Vec<String>, Vec<u64>) {
    storms
        .iter()
        .map(|s| {
            let report = broadcast_core::World::new(s.config()).run();
            let digest = report_digest(&report);
            (storm::render_job(report), digest)
        })
        .unzip()
}

/// Compares a campaign's streamed documents with the one-shot ones.
fn check_campaign(run: &campaign::CampaignRun, reference: &[String], errors: &mut Vec<String>) {
    errors.extend(run.errors.iter().cloned());
    if run.completed != run.jobs {
        errors.push(format!(
            "summary completed {} of {}",
            run.completed, run.jobs
        ));
    }
    for (i, (payload, expected)) in run.payloads.iter().zip(reference).enumerate() {
        match payload {
            Some(bytes) if bytes == expected.as_bytes() => {}
            Some(_) => errors.push(format!("job {i}: streamed metrics differ from one-shot")),
            None => errors.push(format!("job {i}: no metrics streamed")),
        }
    }
}

/// `campaign_*`, untraced: set-up samples, then one session running the
/// campaign in a closed loop.
fn campaign_e2e(args: &Args) -> Result<Outcome, String> {
    let storms = args.workload.storms(args.seed);
    let jobs: Vec<JobEnvelope> = storms.iter().map(StormSpec::envelope).collect();
    let mut errors = Vec::new();
    check_canary(args.workload, &mut errors)?;
    let (reference, digests) = one_shot(&storms);
    check_set(args.workload, args.seed, &digests, &mut errors)?;

    let io = |e: std::io::Error| e.to_string();
    let mut setups = Vec::new();
    for _ in 0..SETUP_SESSIONS {
        let session = Session::start(ServerConfig::default(), false).map_err(io)?;
        setups.push(session.setup);
        session.shutdown().map_err(io)?;
    }
    let mut session = Session::start(ServerConfig::default(), false).map_err(io)?;
    setups.push(session.setup);
    // One untimed campaign first: the session's first campaign pays for
    // cold caches and fresh allocator arenas.
    let warm = session.campaign(args.workload.name(), &jobs).map_err(io)?;
    check_campaign(&warm, &reference, &mut errors);
    // Each campaign is checked as it ends and its payloads dropped, so
    // memory does not grow with the number of campaigns that fit.
    let runs = repeat(args.seconds, || {
        let mut run = session.campaign(args.workload.name(), &jobs).map_err(io)?;
        check_campaign(&run, &reference, &mut errors);
        run.payloads = Vec::new();
        Ok(run)
    })?;
    let (summary, _) = session.shutdown().map_err(io)?;
    let attempted = warm.jobs + runs.iter().map(|r| r.jobs).sum::<u64>();
    let failed = warm.failed + runs.iter().map(|r| r.failed).sum::<u64>();
    if summary.jobs.completed != attempted - failed {
        errors.push(format!(
            "session completed {} of {attempted} jobs",
            summary.jobs.completed
        ));
    }
    let run_s = summarize("run_s", &secs(runs.iter().map(|r| r.wall)));
    let rates: Vec<f64> = runs
        .iter()
        .map(|r| r.completed as f64 / r.wall.as_secs_f64())
        .collect();
    let metrics = vec![
        Metric::new(
            "setup_s",
            summarize("setup_s", &secs(setups.into_iter())),
            "s",
        ),
        Metric::new("run_s", run_s, "s"),
        Metric::new("jobs_per_s", summarize("jobs_per_s", &rates), "jobs/s"),
        Metric::new("peak_rss_mb", report::peak_rss_mb()?, "MiB"),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        errors,
    })
}

/// The traced run: every per-layer metric for the workload's inputs.
fn traced(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let storms = workload.storms(args.seed);
    let t = trace_storms(&storms);
    let mut errors = t.errors.clone();
    check_canary(workload, &mut errors)?;
    check_set(workload, args.seed, &t.digests, &mut errors)?;

    let mut maps: Vec<u32> = storms.iter().map(|s| s.map).collect();
    maps.sort_unstable();
    maps.dedup();
    let radius = storms[0].config().radio_radius;
    let phy = layers::probe_phy(&maps, storms[0].hosts, radius, args.seed);

    let mut session_layers = report::SessionLayers::default();
    let (mut attempted, mut failed) = (storms.len() as u64, 0);
    if workload.is_campaign() {
        let io = |e: std::io::Error| e.to_string();
        let jobs: Vec<JobEnvelope> = storms.iter().map(StormSpec::envelope).collect();
        let mut session = Session::start(ServerConfig::default(), true).map_err(io)?;
        let cpu0 = report::process_cpu_s()?;
        let run = session.campaign(workload.name(), &jobs).map_err(io)?;
        let cpu = report::process_cpu_s()? - cpu0;
        let (_, frames) = session.shutdown().map_err(io)?;
        check_campaign(&run, &t.rendered, &mut errors);
        let mcmp = layers::probe_mcmp(&frames.unwrap_or_default());
        if mcmp.mismatches > 0 {
            errors.push(format!(
                "{} MCMP frames did not round-trip",
                mcmp.mismatches
            ));
        }
        (attempted, failed) = (run.jobs, run.failed);
        session_layers = report::SessionLayers::measure(&run, &t, cpu, mcmp);
    }
    let attributed: u64 = t.world.values().map(|&(_, ns)| ns).sum();
    if attributed > t.loop_ns {
        errors.push(format!(
            "event kinds account for {attributed} ns of a {} ns loop",
            t.loop_ns
        ));
    }
    let metrics = report::layer_metrics(&t, &phy, &session_layers);
    for m in &metrics {
        if report::applies(workload, &m.name) && m.value <= 0.0 {
            errors.push(format!(
                "{} is {} on a workload it applies to",
                m.name, m.value
            ));
        }
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        errors,
    })
}

/// Prints the `pinned_digests.txt` lines for the current program.
fn pin() {
    println!("# workload set-digest canary-digest (seed {DEFAULT_SEED}; the canary is the set's last storm)");
    for workload in Workload::ALL {
        let storms = workload.storms(DEFAULT_SEED);
        let digests: Vec<u64> = configs(&storms)
            .into_iter()
            .map(|cfg| report_digest(&broadcast_core::World::new(cfg).run()))
            .collect();
        println!(
            "{} {:016x} {:016x}",
            workload.name(),
            set_digest(&digests),
            digests.last().expect("workloads are not empty")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_full_command_line_parses() {
        let args = parse_args(&argv(
            "--workload storm_10k --seed 42 --seconds 10 --trace 1",
        ));
        assert_eq!(
            args,
            Ok(Args {
                workload: Workload::Storm10k,
                seed: 42,
                seconds: 10,
                trace: true,
            })
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload storm_10k --seed x --seconds 1 --trace 0",
            "--workload storm_10k --seed 1 --seconds 0 --trace 0",
            "--workload storm_10k --seed 1 --seconds 1 --trace 2",
            "--workload storm_10k --seed 1 --seconds 1",
            "--workload storm_10k --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
