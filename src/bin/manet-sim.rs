//! `manet-sim` — run one MANET broadcast simulation from the command
//! line.
//!
//! ```text
//! manet-sim --map 5 --scheme ac --broadcasts 500 --seed 42
//! manet-sim --map 9 --scheme nc --hello dynamic --speed 60
//! manet-sim --map 3 --scheme location:0.0134 --capture --per-broadcast out.csv
//! manet-sim --help
//! ```

use std::fmt::Write as _;
use std::process::ExitCode;

use manet_broadcast::campaign::{serve, ServerConfig};
use manet_broadcast::core::trace::NoopObserver;
use manet_broadcast::{
    CaptureConfig, DynamicHelloParams, HelloIntervalPolicy, MobilitySpec, NeighborInfo, Scenario,
    SchemeSpec, SimConfig, SimDuration, SimTime, World,
};

const USAGE: &str = "\
usage: manet-sim [options]

options:
  --map N               square map side in 500 m units (default 5)
  --hosts N             number of hosts (default 100)
  --broadcasts N        broadcast requests (default 200)
  --seed N              RNG seed (default 1)
  --speed KMH           max roaming speed; default = paper's per-map value
  --scheme S            flooding | counter:C | ac | distance:D |
                        location:A | al | nc        (default ac)
  --hello P             fixed seconds (e.g. 1) | dynamic | oracle
                        (default: fixed 1 s beacons)
  --mobility M          turn | waypoint | none      (default turn)
  --capture             enable 10 dB physical-layer capture
  --drop P              inject per-delivery loss probability P
  --scenario FILE       replay a churn/fault script (manet-scenario/1,
                        text or JSON); its host count is the default
                        when --hosts is not given
  --per-broadcast FILE  write per-broadcast outcomes as CSV
  --metrics FILE        write run counters and histograms as JSON
                        (schema manet-broadcast-metrics/1)
  --profile             measure event-loop wall time per event kind
  --snapshot-at T_NS    pause at T_NS simulated nanoseconds, write a
                        checkpoint (requires --snapshot-out), continue
  --snapshot-out FILE   checkpoint destination for --snapshot-at
  --resume FILE         resume a checkpoint written by --snapshot-out;
                        the other options must rebuild the same config
  --record TRACE        record every dispatched action to TRACE (MTRC)
  --replay TRACE        replay TRACE through the pure models alone and
                        verify every recorded decision (standalone mode)
  -h, --help            show this help

subcommands:
  serve                 run as a campaign job server (manet-sim serve
                        --help for its options)
";

const SERVE_USAGE: &str = "\
usage: manet-sim serve [options]

Runs the campaign job server: clients submit campaigns of scenario jobs
over the MCMP v1 binary protocol and stream back per-job metrics
documents as they complete (see manet-client).

options:
  --pipe                serve one session on stdin/stdout (default);
                        all human-readable output goes to stderr
  --socket PATH         listen on a Unix socket instead, serving
                        connections until a client sends Shutdown
  --workers N           scheduler pool threads (default: cores - 1;
                        0 runs jobs inline)
  --queue-capacity N    max queued jobs across campaigns (default 65536)
  -h, --help            show this help
";

/// Everything parsed from the command line.
#[derive(Debug)]
struct Options {
    config: SimConfig,
    per_broadcast: Option<String>,
    metrics: Option<String>,
    snapshot_at: Option<u64>,
    snapshot_out: Option<String>,
    resume: Option<String>,
    record: Option<String>,
    replay: Option<String>,
}

fn parse_scheme(s: &str) -> Result<SchemeSpec, String> {
    SchemeSpec::parse(s)
}

fn parse_hello(s: &str) -> Result<NeighborInfo, String> {
    match s {
        "dynamic" => Ok(NeighborInfo::Hello(HelloIntervalPolicy::Dynamic(
            DynamicHelloParams::paper(),
        ))),
        "oracle" => Ok(NeighborInfo::Oracle),
        seconds => seconds
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v > 0.0)
            .map(|v| NeighborInfo::Hello(HelloIntervalPolicy::Fixed(SimDuration::from_secs_f64(v))))
            .ok_or_else(|| format!("bad hello policy '{seconds}' (seconds | dynamic | oracle)")),
    }
}

fn parse_mobility(s: &str) -> Result<MobilitySpec, String> {
    match s {
        "turn" => Ok(MobilitySpec::RandomTurn),
        "waypoint" => Ok(MobilitySpec::RandomWaypoint),
        "none" => Ok(MobilitySpec::Stationary),
        other => Err(format!(
            "unknown mobility '{other}' (turn | waypoint | none)"
        )),
    }
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut map = 5u32;
    let mut hosts: Option<u32> = None;
    let mut broadcasts = 200u32;
    let mut seed = 1u64;
    let mut speed: Option<f64> = None;
    let mut scheme = "ac".to_string();
    let mut hello: Option<String> = None;
    let mut mobility = "turn".to_string();
    let mut capture = false;
    let mut drop = 0.0f64;
    let mut scenario_path: Option<String> = None;
    let mut per_broadcast = None;
    let mut metrics = None;
    let mut profile = false;
    let mut snapshot_at: Option<u64> = None;
    let mut snapshot_out: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut record: Option<String> = None;
    let mut replay: Option<String> = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--map" => {
                map = value("--map")?
                    .parse()
                    .map_err(|e| format!("bad --map: {e}"))?
            }
            "--hosts" => {
                hosts = Some(
                    value("--hosts")?
                        .parse()
                        .map_err(|e| format!("bad --hosts: {e}"))?,
                )
            }
            "--broadcasts" => {
                broadcasts = value("--broadcasts")?
                    .parse()
                    .map_err(|e| format!("bad --broadcasts: {e}"))?
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--speed" => {
                speed = Some(
                    value("--speed")?
                        .parse()
                        .map_err(|e| format!("bad --speed: {e}"))?,
                )
            }
            "--scheme" => scheme = value("--scheme")?,
            "--hello" => hello = Some(value("--hello")?),
            "--mobility" => mobility = value("--mobility")?,
            "--capture" => capture = true,
            "--drop" => {
                drop = value("--drop")?
                    .parse()
                    .map_err(|e| format!("bad --drop: {e}"))?
            }
            "--scenario" => scenario_path = Some(value("--scenario")?),
            "--per-broadcast" => per_broadcast = Some(value("--per-broadcast")?),
            "--metrics" => metrics = Some(value("--metrics")?),
            "--profile" => profile = true,
            "--snapshot-at" => {
                snapshot_at = Some(
                    value("--snapshot-at")?
                        .parse()
                        .map_err(|e| format!("bad --snapshot-at: {e}"))?,
                )
            }
            "--snapshot-out" => snapshot_out = Some(value("--snapshot-out")?),
            "--resume" => resume = Some(value("--resume")?),
            "--record" => record = Some(value("--record")?),
            "--replay" => replay = Some(value("--replay")?),
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown option '{other}'")),
        }
    }

    let scenario = match &scenario_path {
        Some(path) => {
            let input = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read scenario {path}: {e}"))?;
            Some(Scenario::parse(&input).map_err(|e| format!("bad scenario {path}: {e}"))?)
        }
        None => None,
    };
    // Population: explicit --hosts, then the host count the scenario script
    // declares, then the paper's 100. A script's `hosts` line is a contract,
    // so a conflicting --hosts is an error (caught here for a clean message
    // rather than a panic out of SimConfig::build).
    let hosts = hosts
        .or_else(|| scenario.as_ref().and_then(|s| s.hosts))
        .unwrap_or(100);
    if let Some(scenario) = &scenario {
        scenario
            .validate(hosts)
            .map_err(|e| format!("bad scenario: {e}"))?;
    }

    let mut builder = SimConfig::builder(map, parse_scheme(&scheme)?)
        .hosts(hosts)
        .broadcasts(broadcasts)
        .seed(seed)
        .mobility(parse_mobility(&mobility)?)
        .drop_probability(drop)
        .profile_events(profile);
    if let Some(scenario) = scenario {
        builder = builder.scenario(scenario);
    }
    if let Some(kmh) = speed {
        builder = builder.max_speed_kmh(kmh);
    }
    if let Some(policy) = hello {
        builder = builder.neighbor_info(parse_hello(&policy)?);
    }
    if capture {
        builder = builder.capture(CaptureConfig::typical());
    }
    // Checkpoint/trace flag consistency. --replay is a standalone mode
    // (the trace embeds its own replay config); a recording must cover a
    // whole run to be replayable, so it cannot start from a checkpoint.
    if replay.is_some()
        && (record.is_some() || resume.is_some() || snapshot_at.is_some() || snapshot_out.is_some())
    {
        return Err("--replay is standalone; drop the snapshot/record flags".into());
    }
    if snapshot_at.is_some() != snapshot_out.is_some() {
        return Err("--snapshot-at and --snapshot-out go together".into());
    }
    if record.is_some() && resume.is_some() {
        return Err("--record cannot start from --resume: a trace must cover a whole run".into());
    }

    let config = builder.build();
    config.validate()?;
    Ok(Some(Options {
        config,
        per_broadcast,
        metrics,
        snapshot_at,
        snapshot_out,
        resume,
        record,
        replay,
    }))
}

fn per_broadcast_csv(report: &manet_broadcast::SimReport) -> String {
    let mut out = String::from("packet,reachable,received,rebroadcast,re,srb,latency_s\n");
    for o in &report.per_broadcast {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{:.6}",
            o.packet,
            o.reachable,
            o.received,
            o.rebroadcast,
            o.reachability.map_or("-".into(), |v| format!("{v:.4}")),
            o.saved_rebroadcasts
                .map_or("-".into(), |v| format!("{v:.4}")),
            o.latency.as_secs_f64(),
        );
    }
    out
}

/// Serve-mode options: the transport plus the server's tuning knobs.
#[derive(Debug)]
struct ServeOptions {
    socket: Option<String>,
    config: ServerConfig,
}

fn parse_serve_args(args: &[String]) -> Result<Option<ServeOptions>, String> {
    let mut socket: Option<String> = None;
    let mut config = ServerConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--pipe" => socket = None,
            "--socket" => socket = Some(value("--socket")?),
            "--workers" => {
                config.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|e| format!("bad --workers: {e}"))?,
                )
            }
            "--queue-capacity" => {
                config.queue_capacity = value("--queue-capacity")?
                    .parse()
                    .map_err(|e| format!("bad --queue-capacity: {e}"))?;
                if config.queue_capacity == 0 {
                    return Err("bad --queue-capacity: need room for at least one job".into());
                }
            }
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(Some(ServeOptions { socket, config }))
}

fn serve_main(args: &[String]) -> ExitCode {
    let options = match parse_serve_args(args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{SERVE_USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{SERVE_USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match &options.socket {
        Some(path) => {
            manet_broadcast::campaign::serve_unix(std::path::Path::new(path), &options.config)
        }
        None => {
            // Pipe mode: stdout carries MCMP frames, so every human-facing
            // line goes to stderr.
            serve(std::io::stdin(), std::io::stdout(), &options.config).map(|summary| {
                eprintln!(
                    "manet-sim serve: session done: {} campaigns, {} jobs ({} completed, {} cancelled, {} failed)",
                    summary.campaigns,
                    summary.jobs.total,
                    summary.jobs.completed,
                    summary.jobs.cancelled,
                    summary.jobs.failed,
                );
            })
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return serve_main(&args[1..]);
    }
    let options = match parse_args(&args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    // Standalone replay: no simulation, just the pure models re-deriving
    // and verifying the recorded decision stream.
    if let Some(path) = &options.replay {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(err) => {
                eprintln!("error: cannot read {path}: {err}");
                return ExitCode::FAILURE;
            }
        };
        match manet_broadcast::core::replay_decisions(&bytes) {
            Ok(summary) => {
                println!(
                    "replay ok: {} actions, {} decisions verified",
                    summary.actions, summary.decisions
                );
                return ExitCode::SUCCESS;
            }
            Err(err) => {
                eprintln!("error: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    let config = options.config;
    println!(
        "map {}x{}  hosts {}  scheme {}  broadcasts {}  seed {}",
        config.map_units,
        config.map_units,
        config.hosts,
        config.scheme.label(),
        config.broadcasts,
        config.seed,
    );

    let mut world = match &options.resume {
        Some(path) => {
            let bytes = match std::fs::read(path) {
                Ok(bytes) => bytes,
                Err(err) => {
                    eprintln!("error: cannot read {path}: {err}");
                    return ExitCode::FAILURE;
                }
            };
            match World::resume(config, &bytes) {
                Ok(world) => {
                    println!("resumed checkpoint {path}");
                    world
                }
                Err(err) => {
                    eprintln!("error: cannot resume {path}: {err}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => World::new(config),
    };
    if options.record.is_some() {
        world.enable_recording();
    }
    if let (Some(at), Some(out)) = (options.snapshot_at, &options.snapshot_out) {
        world.advance_until(SimTime::from_nanos(at), &mut NoopObserver);
        if let Err(err) = std::fs::write(out, world.snapshot()) {
            eprintln!("error: cannot write {out}: {err}");
            return ExitCode::FAILURE;
        }
        println!("checkpoint at {at} ns written to {out}");
    }
    world.advance_until(SimTime::MAX, &mut NoopObserver);
    let trace = world.take_trace();
    let report = world.into_report();
    if let Some(path) = &options.record {
        let trace = trace.expect("recording was armed");
        if let Err(err) = std::fs::write(path, trace) {
            eprintln!("error: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("action trace written to {path}");
    }
    let latency = report.latency_summary();
    println!();
    println!(
        "reachability (RE)         {:>6.2}%",
        report.reachability * 100.0
    );
    println!(
        "saved rebroadcasts (SRB)  {:>6.2}%",
        report.saved_rebroadcasts * 100.0
    );
    println!(
        "latency mean/p50/p95/max  {:.4} / {:.4} / {:.4} / {:.4} s",
        latency.mean_s, latency.p50_s, latency.p95_s, latency.max_s
    );
    println!(
        "frames: {} data, {} hello; {} collisions over {:.0} simulated s",
        report.data_frames, report.hello_packets, report.collisions, report.sim_seconds
    );
    println!(
        "losses: {} overlap, {} capture, {} half-duplex, {} injected",
        report.losses.overlap,
        report.losses.capture,
        report.losses.half_duplex,
        report.losses.injected
    );
    if let Some(sc) = &report.scenario {
        println!(
            "scenario: {} leaves, {} joins, {} crashes, {} recoveries",
            sc.leaves, sc.joins, sc.crashes, sc.recoveries
        );
        println!(
            "scenario drops: {} blackout, {} partition, {} noise",
            sc.blackout_drops, sc.partition_drops, sc.noise_drops
        );
    }

    if let Some(profile) = &report.profile {
        println!();
        println!("event loop: {} events", profile.events);
        for kind in &profile.kinds {
            println!(
                "  {:<16} {:>9} events  {:>10} ns total  {:>7.0} ns mean  {:>8} ns max",
                kind.kind,
                kind.count,
                kind.total_ns,
                kind.mean_ns(),
                kind.max_ns
            );
        }
    }

    if let Some(path) = options.per_broadcast {
        if let Err(err) = std::fs::write(&path, per_broadcast_csv(&report)) {
            eprintln!("error: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("per-broadcast outcomes written to {path}");
    }

    if let Some(path) = options.metrics {
        // The same schema manet-experiments emits, with this one run as a
        // single-record "figure" so downstream tooling needs no special
        // case for single runs.
        let record = manet_experiments::metrics_record(std::slice::from_ref(&report));
        let json =
            manet_experiments::render_metrics_json("single", &[("manet-sim".into(), vec![record])]);
        if let Err(err) = std::fs::write(&path, json) {
            eprintln!("error: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("run metrics written to {path}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_arguments_parse() {
        let options = parse_args(&[]).expect("parses").expect("not help");
        assert_eq!(options.config.map_units, 5);
        assert_eq!(options.config.scheme.label(), "AC");
    }

    #[test]
    fn parameterized_schemes_parse() {
        assert_eq!(parse_scheme("counter:4").unwrap().label(), "C=4");
        assert_eq!(parse_scheme("location:0.0134").unwrap().label(), "A=0.0134");
        assert_eq!(parse_scheme("distance:250").unwrap().label(), "D=250");
        assert!(parse_scheme("bogus").is_err());
        assert!(parse_scheme("counter:x").is_err());
    }

    #[test]
    fn hello_policies_parse() {
        assert_eq!(parse_hello("oracle").unwrap(), NeighborInfo::Oracle);
        assert!(matches!(
            parse_hello("dynamic").unwrap(),
            NeighborInfo::Hello(HelloIntervalPolicy::Dynamic(_))
        ));
        assert!(matches!(
            parse_hello("2.5").unwrap(),
            NeighborInfo::Hello(HelloIntervalPolicy::Fixed(d))
                if d == SimDuration::from_millis(2_500)
        ));
        assert!(parse_hello("-1").is_err());
        assert!(parse_hello("sometimes").is_err());
    }

    #[test]
    fn full_command_line_parses() {
        let options = parse_args(&args(&[
            "--map",
            "9",
            "--hosts",
            "50",
            "--scheme",
            "nc",
            "--hello",
            "dynamic",
            "--speed",
            "60",
            "--mobility",
            "waypoint",
            "--capture",
            "--drop",
            "0.1",
            "--broadcasts",
            "10",
            "--seed",
            "7",
        ]))
        .expect("parses")
        .expect("not help");
        let c = &options.config;
        assert_eq!(c.map_units, 9);
        assert_eq!(c.hosts, 50);
        assert_eq!(c.scheme.label(), "NC");
        assert_eq!(c.mobility, MobilitySpec::RandomWaypoint);
        assert!(c.capture.is_some());
        assert_eq!(c.drop_probability, 0.1);
        assert_eq!(c.effective_max_speed_kmh(), 60.0);
    }

    /// The run mode has one executor, so `--shards` and `--parallel-epochs`
    /// are unknown options and every parsed config keeps the single-shard shape.
    #[test]
    fn shards_flag_parses() {
        let options = parse_args(&[]).expect("parses").expect("not help");
        assert_eq!(options.config.shards, 1);
        assert!(!options.config.parallel_epochs, "one sequential executor");
        for flags in [
            &["--shards", "4"][..],
            &["--shards", "8", "--parallel-epochs"],
            &["--parallel-epochs"],
        ] {
            let err = parse_args(&args(flags)).expect_err("flag was removed");
            assert!(err.starts_with("unknown option"), "{flags:?}: {err}");
        }
    }

    /// `--workers` sizes the campaign server's pool; the run mode rejects it.
    #[test]
    fn workers_flag_parses() {
        let options = parse_serve_args(&args(&["--workers", "2"]))
            .expect("parses")
            .expect("not help");
        assert_eq!(options.config.workers, Some(2));
        assert!(parse_serve_args(&args(&["--workers", "x"])).is_err());
        let err = parse_args(&args(&["--workers", "2"])).expect_err("run mode has no pool");
        assert!(err.starts_with("unknown option"), "{err}");
    }

    #[test]
    fn serve_arguments_parse() {
        let options = parse_serve_args(&[]).expect("parses").expect("not help");
        assert!(options.socket.is_none(), "pipe mode is the default");
        assert_eq!(options.config.workers, None);
        assert_eq!(options.config.queue_capacity, 65_536);

        let options = parse_serve_args(&args(&[
            "--socket",
            "/tmp/manet.sock",
            "--workers",
            "3",
            "--queue-capacity",
            "128",
        ]))
        .expect("parses")
        .expect("not help");
        assert_eq!(options.socket.as_deref(), Some("/tmp/manet.sock"));
        assert_eq!(options.config.workers, Some(3));
        assert_eq!(options.config.queue_capacity, 128);

        assert!(parse_serve_args(&args(&["--help"])).unwrap().is_none());
        assert!(parse_serve_args(&args(&["--queue-capacity", "0"])).is_err());
        assert!(parse_serve_args(&args(&["--map", "5"])).is_err());
    }

    #[test]
    fn metrics_flag_parses() {
        let options = parse_args(&args(&["--metrics", "out.json"]))
            .expect("parses")
            .expect("not help");
        assert_eq!(options.metrics.as_deref(), Some("out.json"));
        assert!(parse_args(&args(&["--metrics"])).is_err(), "missing value");
    }

    #[test]
    fn scenario_flag_loads_script_and_defaults_hosts() {
        let path = std::env::temp_dir().join("manet_sim_test_scenario.txt");
        std::fs::write(
            &path,
            "manet-scenario/1\nname cli-test\nhosts 42\nat 1 crash 3\nat 2 recover 3\n",
        )
        .unwrap();
        let options = parse_args(&args(&["--scenario", path.to_str().unwrap()]))
            .expect("parses")
            .expect("not help");
        assert_eq!(
            options.config.hosts, 42,
            "scenario host count is the default"
        );
        assert!(options.config.scenario.is_some());

        // A matching --hosts is fine; a conflicting one is a clean error
        // (the script's `hosts` line is a contract, not a default).
        let options = parse_args(&args(&[
            "--scenario",
            path.to_str().unwrap(),
            "--hosts",
            "42",
        ]))
        .expect("parses")
        .expect("not help");
        assert_eq!(options.config.hosts, 42);
        let err = parse_args(&args(&[
            "--scenario",
            path.to_str().unwrap(),
            "--hosts",
            "50",
        ]))
        .expect_err("conflicting --hosts is rejected");
        assert!(err.contains("42 hosts"), "{err}");
        std::fs::remove_file(&path).ok();

        assert!(parse_args(&args(&["--scenario", "/nonexistent/sc.txt"])).is_err());
    }

    #[test]
    fn checkpoint_and_trace_flags_parse() {
        let options = parse_args(&args(&[
            "--snapshot-at",
            "5000000000",
            "--snapshot-out",
            "w.snap",
            "--record",
            "run.mtrc",
        ]))
        .expect("parses")
        .expect("not help");
        assert_eq!(options.snapshot_at, Some(5_000_000_000));
        assert_eq!(options.snapshot_out.as_deref(), Some("w.snap"));
        assert_eq!(options.record.as_deref(), Some("run.mtrc"));

        let options = parse_args(&args(&["--resume", "w.snap"]))
            .expect("parses")
            .expect("not help");
        assert_eq!(options.resume.as_deref(), Some("w.snap"));

        let options = parse_args(&args(&["--replay", "run.mtrc"]))
            .expect("parses")
            .expect("not help");
        assert_eq!(options.replay.as_deref(), Some("run.mtrc"));
    }

    #[test]
    fn inconsistent_checkpoint_flags_are_rejected() {
        // --snapshot-at and --snapshot-out only make sense together.
        assert!(parse_args(&args(&["--snapshot-at", "1"])).is_err());
        assert!(parse_args(&args(&["--snapshot-out", "w.snap"])).is_err());
        // A trace must cover a whole run.
        assert!(parse_args(&args(&["--record", "t", "--resume", "w"])).is_err());
        // Replay is standalone.
        assert!(parse_args(&args(&["--replay", "t", "--record", "t2"])).is_err());
        assert!(parse_args(&args(&["--replay", "t", "--resume", "w"])).is_err());
        assert!(parse_args(&args(&["--snapshot-at", "x", "--snapshot-out", "w"])).is_err());
    }

    #[test]
    fn help_short_circuits() {
        assert!(parse_args(&args(&["--help"])).unwrap().is_none());
    }

    #[test]
    fn unknown_option_errors() {
        assert!(parse_args(&args(&["--frobnicate"])).is_err());
        assert!(parse_args(&args(&["--map"])).is_err(), "missing value");
    }

    #[test]
    fn per_broadcast_csv_shape() {
        let config = SimConfig::builder(3, SchemeSpec::Flooding)
            .hosts(10)
            .broadcasts(2)
            .seed(3)
            .build();
        let report = World::new(config).run();
        let csv = per_broadcast_csv(&report);
        assert_eq!(csv.lines().count(), 3, "header + 2 broadcasts");
        assert!(csv.starts_with("packet,reachable"));
    }
}
