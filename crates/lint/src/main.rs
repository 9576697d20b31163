//! `itlint` CLI. See the crate docs ("Static gates") for the rule catalogue
//! and the ratchet model.
//!
//! Modes:
//! - default: list every current violation (baselined or not); exit 0.
//! - `--check`: ratchet against `lint/baseline.toml`; exit 1 on any
//!   `(rule, file)` above its baselined count (or unbaselined).
//! - `--write-baseline`: regenerate the baseline from the current tree.
//! - `--json`: machine-readable listing (default mode only).
//! - `--list-rules`: print the rule catalogue.
//! - `--root <dir>`: workspace root (default: walk up from the cwd).
//!
//! Exit codes: 0 ok, 1 check failed, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use inferturbo_lint::{baseline, config, report, rules, scan_workspace};

struct Args {
    root: Option<PathBuf>,
    baseline_path: Option<PathBuf>,
    check: bool,
    json: bool,
    write_baseline: bool,
    list_rules: bool,
}

const USAGE: &str = "usage: itlint [--root <dir>] [--baseline <path>] [--check] [--json] [--write-baseline] [--list-rules]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        baseline_path: None,
        check: false,
        json: false,
        write_baseline: false,
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
            "--baseline" => {
                args.baseline_path = Some(PathBuf::from(
                    it.next().ok_or("--baseline requires a path")?,
                ))
            }
            "--check" => args.check = true,
            "--json" => args.json = true,
            "--write-baseline" => args.write_baseline = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if args.check && args.write_baseline {
        return Err("--check and --write-baseline are mutually exclusive".to_string());
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
    let baseline_path = args
        .baseline_path
        .clone()
        .unwrap_or_else(|| root.join("lint").join("baseline.toml"));

    let violations = scan_workspace(&root)?;
    let current = baseline::counts_of(&violations);

    if args.write_baseline {
        let rendered = baseline::render(&current);
        if let Some(dir) = baseline_path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(&baseline_path, &rendered)
            .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
        println!(
            "itlint: wrote {} entries ({} violation(s)) to {}",
            current.len(),
            violations.len(),
            baseline_path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }

    if args.check {
        let committed = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => baseline::parse(&text)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => baseline::Counts::new(),
            Err(e) => return Err(format!("reading {}: {e}", baseline_path.display())),
        };
        let ratchet = baseline::ratchet(&current, &committed);
        // Show the actual offending sites for regressed pairs, so the CI
        // failure names lines, not just counts.
        let above: Vec<report::Violation> = violations
            .iter()
            .filter(|v| {
                ratchet
                    .regressions
                    .iter()
                    .any(|d| d.rule == v.rule && d.file == v.file)
            })
            .cloned()
            .collect();
        print!("{}", report::render_check(&ratchet, &above));
        return Ok(if ratchet.regressions.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    if args.json {
        print!("{}", report::render_json(&violations));
    } else {
        print!("{}", report::render_human(&violations));
    }
    Ok(ExitCode::SUCCESS)
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
