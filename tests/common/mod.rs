//! Helpers shared by the root integration suites (`mod common;`); each
//! suite uses some of them.
#![allow(dead_code)]

use inferturbo::cluster::ClusterSpec;
use inferturbo::common::layout::Layout;
use inferturbo::common::Result;
use inferturbo::core::models::GnnModel;
use inferturbo::core::session::{Backend, InferenceSession};
use inferturbo::core::strategy::StrategyConfig;
use inferturbo::core::InferenceOutput;
use inferturbo::graph::Graph;
use inferturbo::pregel::{PregelConfig, PregelEngine, VertexProgram};
use std::path::PathBuf;

/// Plan once and run once on `backend`, over `spec` whichever engine that
/// is.
pub fn run_once(
    backend: Backend,
    model: &GnnModel,
    graph: &Graph,
    spec: ClusterSpec,
    strategy: StrategyConfig,
) -> Result<InferenceOutput> {
    InferenceSession::builder()
        .model(model)
        .graph(graph)
        .pregel_spec(spec)
        .mapreduce_spec(spec)
        .strategy(strategy)
        .backend(backend)
        .plan()?
        .run()
}

/// An engine over vertices `0..n` in id order with no planned out-edges
/// (for programs that address by id); `state(v)` is vertex `v`'s.
pub fn id_addressed_engine<P: VertexProgram>(
    program: P,
    cfg: PregelConfig,
    n: usize,
    state: impl Fn(usize) -> P::State,
) -> PregelEngine<P> {
    let ids = (0..n as u64).map(|v| (v, &[][..]));
    let layout = Layout::planned(cfg.spec.workers, ids).unwrap();
    let states: Vec<P::State> = layout.vertices().map(|v| state(v.position)).collect();
    PregelEngine::with_layout(program, cfg, std::sync::Arc::new(layout), states).unwrap()
}

/// Locate the `itworker` child binary, building it on demand: root-level
/// integration tests do not get `CARGO_BIN_EXE_itworker` (that variable is
/// only set for the defining package's own tests), and a bare
/// `cargo test --test <suite>` does not build sibling bins.
pub fn worker_bin() -> PathBuf {
    let mut dir = std::env::current_exe().expect("test exe path");
    dir.pop();
    if dir.ends_with("deps") {
        dir.pop();
    }
    let bin = dir.join(format!("itworker{}", std::env::consts::EXE_SUFFIX));
    if !bin.exists() {
        #[expect(
            clippy::disallowed_types,
            clippy::disallowed_methods,
            reason = "a test helper building the worker binary with cargo, not a worker process"
        )]
        let mut cmd = std::process::Command::new(env!("CARGO"));
        cmd.args(["build", "-p", "inferturbo-cluster", "--bin", "itworker"]);
        if dir.ends_with("release") {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("spawn cargo to build itworker");
        assert!(status.success(), "building the itworker binary failed");
        assert!(
            bin.exists(),
            "cargo succeeded but {} is missing",
            bin.display()
        );
    }
    bin
}
