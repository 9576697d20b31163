//! `itlint` CLI. See the crate docs ("Static gates") for the rule catalogue
//! and the inline-allow exemption.
//!
//! Modes:
//! - default: list every current violation; exit 0.
//! - `--check`: the same listing; exit 1 on any violation.
//! - `--list-rules`: print the rule catalogue.
//! - `--root <dir>`: workspace root (default: walk up from the cwd).
//!
//! Exit codes: 0 ok, 1 check failed, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use inferturbo_lint::{config, report, rules, scan_workspace};

struct Args {
    root: Option<PathBuf>,
    check: bool,
    list_rules: bool,
}

const USAGE: &str = "usage: itlint [--root <dir>] [--check] [--list-rules]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        check: false,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                args.root = Some(PathBuf::from(
                    it.next().ok_or("--root requires a directory")?,
                ))
            }
            "--check" => args.check = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;

    if args.list_rules {
        for r in rules::RULES {
            println!("{:<16} {}", r.id, r.summary);
        }
        return Ok(ExitCode::SUCCESS);
    }

    let root = match &args.root {
        Some(r) => r.clone(),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("getcwd: {e}"))?;
            config::find_workspace_root(&cwd).map_err(|e| e.to_string())?
        }
    };

    let violations = scan_workspace(&root)?;
    print!("{}", report::render_human(&violations));
    Ok(if args.check && !violations.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("itlint: {msg}");
            ExitCode::from(2)
        }
    }
}
