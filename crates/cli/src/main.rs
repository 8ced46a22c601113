//! `prs` — command-line front end for the resource-sharing toolkit.
//!
//! See [`commands::USAGE`] or run `prs` with no arguments.

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// Where the recorded trace goes after the command finishes.
enum TraceOut {
    /// Bare `--trace`: human-readable span/counter summary on stdout.
    Summary,
    /// `--trace=FILE`: Chrome trace-event JSON (Perfetto/`chrome://tracing`).
    Chrome(String),
    /// `--trace-jsonl=FILE`: one JSON object per event.
    Jsonl(String),
}

fn run(args: &[String]) -> Result<(), String> {
    let stats = args.iter().any(|a| a == "--stats");
    let mut trace_out: Option<TraceOut> = None;
    for a in args {
        if a == "--trace" {
            trace_out = Some(TraceOut::Summary);
        } else if let Some(path) = a.strip_prefix("--trace=") {
            trace_out = Some(TraceOut::Chrome(path.to_string()));
        } else if let Some(path) = a.strip_prefix("--trace-jsonl=") {
            trace_out = Some(TraceOut::Jsonl(path.to_string()));
        }
    }
    let args: Vec<String> = args
        .iter()
        .filter(|a| *a != "--stats" && !a.starts_with("--trace"))
        .cloned()
        .collect();
    let Some(cmd) = args.first() else {
        return Err(commands::USAGE.to_string());
    };
    let file = args
        .get(1)
        .ok_or_else(|| format!("missing instance file\n\n{}", commands::USAGE))?;
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let graph = prs_core::parse::parse_instance(&text).map_err(|e| format!("{file}: {e}"))?;

    let mut stdout = std::io::stdout().lock();
    let vertex_arg = |idx: usize| -> Result<usize, String> {
        args.get(idx)
            .ok_or_else(|| "missing vertex argument".to_string())?
            .parse::<usize>()
            .map_err(|_| "vertex must be a non-negative integer".to_string())
    };

    if trace_out.is_some() {
        prs_core::trace::install(&prs_core::trace::TraceConfig::new().with_enabled(true));
    }

    let result = match cmd.as_str() {
        "decompose" => commands::cmd_decompose(&graph, &mut stdout),
        "allocate" => commands::cmd_allocate(&graph, &mut stdout),
        "dynamics" => {
            let eps = args
                .get(2)
                .map(|s| s.parse::<f64>().map_err(|_| "bad eps".to_string()))
                .transpose()?
                .unwrap_or(1e-8);
            commands::cmd_dynamics(&graph, eps, &mut stdout)
        }
        "attack" => commands::cmd_attack(&graph, vertex_arg(2)?, &mut stdout),
        "certified-attack" => commands::cmd_certified_attack(&graph, vertex_arg(2)?, &mut stdout),
        "eg" => commands::cmd_eg(&graph, &mut stdout),
        "general-attack" => commands::cmd_general_attack(&graph, vertex_arg(2)?, &mut stdout),
        "sweep" => commands::cmd_sweep(&graph, vertex_arg(2)?, &mut stdout),
        "update" => {
            let script = args
                .get(2)
                .ok_or_else(|| format!("missing churn script file\n\n{}", commands::USAGE))?;
            let text = std::fs::read_to_string(script)
                .map_err(|e| format!("cannot read {script}: {e}"))?;
            commands::cmd_update(&graph, &text, stats, &mut stdout)
        }
        "watch" => {
            let script = args
                .get(2)
                .ok_or_else(|| format!("missing churn script file\n\n{}", commands::USAGE))?;
            let text = std::fs::read_to_string(script)
                .map_err(|e| format!("cannot read {script}: {e}"))?;
            let dump_dir = args.get(3).map(String::as_str);
            let slo_ms = args
                .get(4)
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| "slo-ms must be a non-negative integer".to_string())
                })
                .transpose()?;
            commands::cmd_watch(&graph, &text, dump_dir, slo_ms, &mut stdout)
        }
        "swarm" => {
            let mut agents = None;
            let mut rounds = None;
            let mut churn_path: Option<String> = None;
            let mut i = 2;
            while i < args.len() {
                let (flag, inline) = match args[i].split_once('=') {
                    Some((f, v)) => (f.to_string(), Some(v.to_string())),
                    None => (args[i].clone(), None),
                };
                let value = match inline {
                    Some(v) => v,
                    None => {
                        i += 1;
                        args.get(i)
                            .cloned()
                            .ok_or_else(|| format!("flag `{flag}` needs a value"))?
                    }
                };
                match flag.as_str() {
                    "--agents" => {
                        agents =
                            Some(value.parse::<usize>().map_err(|_| {
                                "--agents must be a non-negative integer".to_string()
                            })?);
                    }
                    "--rounds" => {
                        rounds =
                            Some(value.parse::<usize>().map_err(|_| {
                                "--rounds must be a non-negative integer".to_string()
                            })?);
                    }
                    "--churn" => churn_path = Some(value),
                    other => {
                        return Err(format!(
                            "unknown swarm flag `{other}`\n\n{}",
                            commands::USAGE
                        ))
                    }
                }
                i += 1;
            }
            let churn_text = match &churn_path {
                Some(p) => {
                    Some(std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?)
                }
                None => None,
            };
            commands::cmd_swarm(&graph, agents, rounds, churn_text.as_deref(), &mut stdout)
        }
        "audit" => commands::cmd_audit(&graph, stats, &mut stdout),
        other => return Err(format!("unknown command `{other}`\n\n{}", commands::USAGE)),
    };

    if let Some(out) = trace_out {
        let trace = prs_core::trace::take();
        prs_core::trace::disable();
        let emit: std::io::Result<()> = match out {
            TraceOut::Summary => {
                use std::io::Write;
                write!(stdout, "{}", trace.summary())
            }
            TraceOut::Chrome(path) => std::fs::write(&path, trace.to_chrome_json()).map(|()| {
                use std::io::Write;
                let _ = writeln!(
                    stdout,
                    "trace: wrote {} events to {path} (open in Perfetto or chrome://tracing)",
                    trace.events.len()
                );
            }),
            TraceOut::Jsonl(path) => std::fs::write(&path, trace.to_jsonl()).map(|()| {
                use std::io::Write;
                let _ = writeln!(
                    stdout,
                    "trace: wrote {} events to {path}",
                    trace.events.len()
                );
            }),
        };
        emit.map_err(|e| format!("cannot write trace: {e}"))?;
    }
    result.map_err(|e| format!("io error: {e}"))
}
