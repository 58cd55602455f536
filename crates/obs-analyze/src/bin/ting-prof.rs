//! `ting-prof`: analyze `ting-obs-v1` traces.
//!
//! ```text
//! ting-prof lint    <trace.jsonl>                  # exit 1 on issues
//! ting-prof report  <trace.jsonl>                  # deterministic profile
//! ting-prof flame   <trace.jsonl> [out.folded]     # folded stacks
//! ting-prof lineage <trace.jsonl> <x> <y>          # causal chain for a pair
//! ting-prof slo     <trace.jsonl> [--fail-on <name>]  # breach timeline
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("ting-prof: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let usage = "usage: ting-prof <lint|report|flame|lineage|slo> ... (see --help)";
    let cmd = args.first().map(String::as_str).ok_or(usage)?;
    match cmd {
        "lint" => {
            let doc = load_trace(args.get(1).ok_or("lint: missing trace path")?)?;
            let issues = obs_analyze::lint(&doc);
            for issue in &issues {
                println!("{issue}");
            }
            if issues.is_empty() {
                println!(
                    "ok: {} events, 0 issues (seed={} config_hash={:016x})",
                    doc.events.len(),
                    doc.seed,
                    doc.config_hash
                );
                Ok(ExitCode::SUCCESS)
            } else {
                println!("{} issue(s)", issues.len());
                Ok(ExitCode::FAILURE)
            }
        }
        "report" => {
            let doc = load_trace(args.get(1).ok_or("report: missing trace path")?)?;
            let trace = obs_analyze::build(&doc)?;
            print!("{}", obs_analyze::report::render(&doc, &trace));
            Ok(ExitCode::SUCCESS)
        }
        "flame" => {
            let doc = load_trace(args.get(1).ok_or("flame: missing trace path")?)?;
            let trace = obs_analyze::build(&doc)?;
            let folded = obs_analyze::folded_stacks(&trace);
            match args.get(2) {
                Some(path) => {
                    std::fs::write(path, &folded).map_err(|e| format!("{path}: {e}"))?;
                    eprintln!("wrote {} stacks to {path}", folded.lines().count());
                }
                None => print!("{folded}"),
            }
            Ok(ExitCode::SUCCESS)
        }
        "lineage" => {
            let doc = load_trace(args.get(1).ok_or("lineage: missing trace path")?)?;
            let x: u64 = args
                .get(2)
                .ok_or("lineage: missing node x")?
                .parse()
                .map_err(|e| format!("lineage: node x: {e}"))?;
            let y: u64 = args
                .get(3)
                .ok_or("lineage: missing node y")?
                .parse()
                .map_err(|e| format!("lineage: node y: {e}"))?;
            print!("{}", obs_analyze::render_lineage(&doc, x, y));
            Ok(if obs_analyze::trace_pair(&doc, x, y).is_some() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "slo" => {
            let doc = load_trace(args.get(1).ok_or("slo: missing trace path")?)?;
            let mut fail_on: Vec<&str> = Vec::new();
            let mut rest = args[2..].iter();
            while let Some(flag) = rest.next() {
                match flag.as_str() {
                    "--fail-on" => {
                        fail_on.push(rest.next().ok_or("--fail-on needs an SLO name")?);
                    }
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            print!("{}", obs_analyze::render_slo(&doc));
            let tripped: Vec<&&str> = fail_on
                .iter()
                .filter(|name| obs_analyze::breached(&doc, name))
                .collect();
            for name in &tripped {
                eprintln!("ting-prof: SLO {name:?} breached in this trace");
            }
            Ok(if tripped.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "--help" | "-h" | "help" => {
            println!("{usage}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}; {usage}")),
    }
}

fn load_trace(path: &str) -> Result<obs::Document, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    obs_analyze::parse_document(&text).map_err(|e| format!("{path}: {e}"))
}
