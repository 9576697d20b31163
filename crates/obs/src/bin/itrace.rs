//! `itrace` — inspect a recorded trace.
//!
//! ```sh
//! itrace <trace-file>            # all three summaries
//! itrace --supersteps <file>    # per-superstep engine timeline only
//! itrace --tenants <file>       # per-tenant serving summary only
//! itrace --critical-path <file> # straggler breakdown only
//! ```
//!
//! Trace files are the canonical line format produced by
//! `TraceHandle::render` (see the golden fixtures under `tests/`); the
//! loader rejects malformed lines with the offending line number.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use inferturbo_obs::inspect::{
    parse_trace, render_critical_path, render_superstep_summary, render_tenant_summary,
};

const USAGE: &str = "usage: itrace [--supersteps|--tenants|--critical-path] <trace-file>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, path) = match args.as_slice() {
        [path] => ("all", path.as_str()),
        [flag, path] if flag.starts_with("--") => (flag.trim_start_matches("--"), path.as_str()),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("itrace: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let events = match parse_trace(&text) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("itrace: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{} events from {path}\n", events.len());
    match mode {
        "supersteps" => print!("{}", render_superstep_summary(&events)),
        "tenants" => print!("{}", render_tenant_summary(&events)),
        "critical-path" => print!("{}", render_critical_path(&events)),
        "all" => {
            print!("{}", render_superstep_summary(&events));
            println!();
            print!("{}", render_tenant_summary(&events));
            println!();
            print!("{}", render_critical_path(&events));
        }
        other => {
            eprintln!("itrace: unknown mode --{other}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
