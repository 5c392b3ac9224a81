//! Result lines, the machine block, pinned digests and the per-layer
//! metric table.

use std::process::Command;

use crate::campaign::CampaignRun;
use crate::layers::{McmpProbe, PhyProbe};
use crate::storm::{Traced, PURE_ACTIONS, WORLD_KINDS};
use crate::workloads::Workload;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// The measured value (finite).
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; `value` must be finite.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        let name = name.into();
        assert!(value.is_finite(), "{name} is not finite");
        Metric { name, value, unit }
    }
}

/// What a run measured and whether its outputs were right.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations (storms or jobs) attempted.
    pub attempted: u64,
    /// Jobs that failed, were rejected or went missing.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Correctness-gate violations.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Every gate held and no job failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Digests pinned for one workload at the default seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    /// Digest of the whole storm set.
    pub set_digest: u64,
    /// Report digest of the canary storm, the last of the set.
    pub canary_digest: u64,
}

const PINNED: &str = include_str!("../pinned_digests.txt");

/// The pinned digests of `workload`.
///
/// # Errors
///
/// When `pinned_digests.txt` has no well-formed line for it.
pub fn pinned(workload: Workload) -> Result<Pinned, String> {
    PINNED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.first() == Some(&workload.name()))
        .and_then(|f| {
            Some(Pinned {
                set_digest: u64::from_str_radix(f.get(1)?, 16).ok()?,
                canary_digest: u64::from_str_radix(f.get(2)?, 16).ok()?,
            })
        })
        .ok_or_else(|| format!("no pinned digests for {}", workload.name()))
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// First line of a command's stdout, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    // Never let git discover a repository above the working directory.
    if let Ok(cwd) = std::env::current_dir() {
        if let Some(parent) = cwd.parent() {
            cmd.env("GIT_CEILING_DIRECTORIES", parent);
        }
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The machine block printed before every result line.
pub fn machine_json(workload: &Workload, seed: u64, trace: bool) -> String {
    format!(
        "{{\"machine\": {{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"git\": {}, \
         \"workload\": {}, \"seed\": {seed}, \"trace\": {}}}}}",
        nproc(),
        json_str(&cpu_model()),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(workload.name()),
        u8::from(trace),
    )
}

/// `VmHWM` of this process, in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// User + system CPU time of the whole process so far, in seconds
/// (`/proc/self/stat` fields 14 and 15, at Linux's fixed 100 ticks/s).
///
/// # Errors
///
/// When `/proc/self/stat` is unreadable or malformed.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // The command name is parenthesised and may hold spaces.
    let after = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state), so field k is fields[k - 3].
    let ticks = |k: usize| -> Result<f64, String> {
        fields
            .get(k - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("no field {k} in /proc/self/stat"))
    };
    Ok((ticks(14)? + ticks(15)?) / 100.0)
}

/// The campaign-session layers of a traced campaign run (all zero on the
/// storm workloads, which have no session).
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionLayers {
    admission_ms: f64,
    job_cpu_s: f64,
    pool_busy_ratio: f64,
    cpu_util: f64,
    failed_ratio: f64,
    mcmp: McmpProbe,
}

impl SessionLayers {
    /// Derives the session metrics of one traced campaign.
    pub fn measure(run: &CampaignRun, t: &Traced, cpu_s: f64, mcmp: McmpProbe) -> SessionLayers {
        let wall = run.wall.as_secs_f64();
        let job_cpu_s = (t.untraced_run_ns + t.render_ns) as f64 / 1e9;
        let pool_threads = nproc().saturating_sub(1);
        // The scheduler thread joins each pool batch, so it computes too.
        let compute_threads = (pool_threads + 1) as f64;
        SessionLayers {
            admission_ms: run.admission.as_secs_f64() * 1e3,
            job_cpu_s,
            pool_busy_ratio: job_cpu_s / (wall * compute_threads),
            cpu_util: cpu_s / (wall * nproc() as f64),
            failed_ratio: run.failed as f64 / run.jobs as f64,
            mcmp,
        }
    }
}

/// Whether per-layer metric `name` measures work `workload` does, so
/// its traced run must report it non-zero. Parallel epochs never run on
/// the default executor, failures are gated separately, the two
/// attribution ratios may be 0, the session layers exist only on the
/// campaign workloads, and `storm_10k` sends no HELLO.
pub fn applies(workload: Workload, name: &str) -> bool {
    match name {
        "engine.epochs"
        | "campaign.failed_ratio"
        | "trace.overhead_ratio"
        | "world.unattributed_ratio" => false,
        n if n.starts_with("mcmp.") || n.starts_with("campaign.") => workload.is_campaign(),
        n if n.contains("hello") => workload != Workload::Storm10k,
        _ => true,
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn layer_metrics(t: &Traced, phy: &PhyProbe, s: &SessionLayers) -> Vec<Metric> {
    let loop_ns = t.loop_ns as f64;
    let attributed: u64 = t.world.values().map(|&(_, ns)| ns).sum();
    let traced_run_ns = (t.loop_ns + t.report_ns) as f64;
    let mut m = vec![
        Metric::new(
            "trace.overhead_ratio",
            traced_run_ns / t.untraced_run_ns as f64 - 1.0,
            "ratio",
        ),
        Metric::new(
            "world.unattributed_ratio",
            1.0 - attributed as f64 / loop_ns,
            "ratio",
        ),
        Metric::new("world.loop_ns", loop_ns, "ns"),
        Metric::new("world.events", t.events as f64, "count"),
    ];
    for kind in WORLD_KINDS {
        let (count, ns) = t.world.get(kind).copied().unwrap_or_default();
        m.push(Metric::new(
            format!("world.{kind}.count"),
            count as f64,
            "count",
        ));
        m.push(Metric::new(format!("world.{kind}.ns"), ns as f64, "ns"));
    }
    m.extend([
        Metric::new("phy.range_query_ns", phy.range_query_ns, "ns"),
        Metric::new(
            "phy.range_queries",
            (t.data_frames + t.hello_frames) as f64,
            "count",
        ),
        Metric::new("phy.reach_bfs_ns", phy.reach_bfs_ns, "ns"),
        Metric::new(
            "engine.ns_per_event",
            t.untraced_run_ns as f64 / t.events as f64,
            "ns",
        ),
        Metric::new("engine.epochs", t.epochs as f64, "count"),
        Metric::new("sim.data_frames", t.data_frames as f64, "count"),
        Metric::new("sim.hello_frames", t.hello_frames as f64, "count"),
        Metric::new("sim.collisions", t.collisions as f64, "count"),
        Metric::new("mac.backoff_draws", t.backoff_draws as f64, "count"),
    ]);
    for action in PURE_ACTIONS {
        let (count, ns) = t.pure.get(action).copied().unwrap_or_default();
        m.push(Metric::new(
            format!("pure.{action}.count"),
            count as f64,
            "count",
        ));
        m.push(Metric::new(format!("pure.{action}.ns"), ns as f64, "ns"));
    }
    m.extend([
        Metric::new("pure.effects", t.pure_effects as f64, "count"),
        Metric::new("core.report_ns", t.report_ns as f64, "ns"),
        Metric::new(
            "metrics.render_ns",
            t.render_ns as f64 / t.digests.len() as f64,
            "ns",
        ),
        Metric::new("metrics.bytes", t.render_bytes as f64, "bytes"),
        Metric::new("mcmp.encode_ns", s.mcmp.encode_ns as f64, "ns"),
        Metric::new("mcmp.decode_ns", s.mcmp.decode_ns as f64, "ns"),
        Metric::new("mcmp.frames", s.mcmp.frames as f64, "count"),
        Metric::new("mcmp.bytes", s.mcmp.bytes as f64, "bytes"),
        Metric::new("campaign.admission_ms", s.admission_ms, "ms"),
        Metric::new("campaign.job_cpu_s", s.job_cpu_s, "s"),
        Metric::new("campaign.pool_busy_ratio", s.pool_busy_ratio, "ratio"),
        Metric::new("campaign.cpu_util", s.cpu_util, "ratio"),
        Metric::new("campaign.failed_ratio", s.failed_ratio, "ratio"),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{section}\"")).expect("section");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array end")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("name value").to_string())
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_per_layer_metric_is_emitted_and_declared() {
        let t = Traced {
            untraced_run_ns: 1,
            loop_ns: 1,
            events: 1,
            digests: vec![0],
            ..Traced::default()
        };
        let names: Vec<String> = layer_metrics(&t, &PhyProbe::default(), &SessionLayers::default())
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names, declared("per_layer"));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn layer_applicability_follows_the_workload() {
        assert!(applies(Workload::StormPaper, "pure.hello_heard.count"));
        assert!(!applies(Workload::Storm10k, "pure.hello_heard.count"));
        assert!(!applies(Workload::Storm10k, "sim.hello_frames"));
        assert!(applies(Workload::Storm10k, "world.mac_timer.ns"));
        assert!(applies(Workload::CampaignTiny, "mcmp.frames"));
        assert!(!applies(Workload::StormPaper, "campaign.admission_ms"));
        assert!(!applies(Workload::CampaignPaper, "engine.epochs"));
    }

    #[test]
    fn end_to_end_names_are_declared_and_valid() {
        let names = declared("end_to_end");
        assert_eq!(names, ["setup_s", "run_s", "jobs_per_s", "peak_rss_mb"]);
        assert!(names.iter().all(|n| valid_name(n)));
        for w in Workload::ALL {
            assert!(declared("workloads").contains(&w.name().to_string()));
        }
    }

    #[test]
    fn every_workload_has_pinned_digests() {
        for w in Workload::ALL {
            assert!(pinned(w).is_ok(), "{} not pinned", w.name());
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("run_s", 1.25, "s")],
            errors: vec![],
        };
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        let failed = Outcome {
            failed: 1,
            ..outcome
        };
        assert!(!failed.correct());
    }

    #[test]
    fn machine_block_names_the_machine() {
        let line = machine_json(&Workload::StormPaper, 9, false);
        for key in ["nproc", "cpu", "rustc", "git", "seed"] {
            assert!(line.contains(&format!("\"{key}\"")), "{line}");
        }
        assert!(process_cpu_s().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
