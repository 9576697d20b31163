//! Experiment runner: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [--quick] [--out DIR] [table1|table2|table3|table4|
//!              fig7|fig8|fig9|fig10|fig11|fig12|fig13|all]
//! ```
//!
//! CSV dumps land in `DIR/csv/`, trained-model signatures in
//! `DIR/models/` (reused across experiments and runs).

#![forbid(unsafe_code)]

use inferturbo_bench::*;
use inferturbo_common::Result;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "target/experiments".into());
    let selected: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--") && a.as_str() != out_dir)
        .cloned()
        .collect();
    let selected = if selected.is_empty() {
        vec!["all".to_string()]
    } else {
        selected
    };

    let ctx = ExpCtx::new(&out_dir, quick);
    println!(
        "InferTurbo experiment harness (quick={quick}, out={out_dir})\n\
         scale-down: graphs ~1000x smaller than the paper's; compare shapes and ratios.\n"
    );

    type Runner = fn(&ExpCtx) -> Result<()>;
    let all: Vec<(&str, Runner)> = vec![
        ("table1", table1::run),
        ("table2", table2::run),
        ("table3", table3::run),
        ("table4", table4::run),
        ("fig7", fig7::run),
        ("fig8", fig8::run),
        ("fig9", fig9::run),
        ("fig10", fig10::run),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        ("fig13", fig13::run),
    ];

    for sel in &selected {
        if sel == "all" {
            for (name, f) in &all {
                run_one(name, *f, &ctx);
            }
        } else if let Some((name, f)) = all.iter().find(|(n, _)| n == sel) {
            run_one(name, *f, &ctx);
        } else {
            eprintln!("unknown experiment `{sel}`; known: table1..table4, fig7..fig13, all");
            std::process::exit(2);
        }
    }
}

fn run_one(name: &str, f: fn(&ExpCtx) -> Result<()>, ctx: &ExpCtx) {
    let start = Instant::now();
    println!("### {name} ###");
    if let Err(e) = f(ctx) {
        eprintln!("experiment `{name}` failed: {e}");
        std::process::exit(1);
    }
    println!(
        "[{name} finished in {:.1}s]\n",
        start.elapsed().as_secs_f64()
    );
}
