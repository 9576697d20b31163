//! Fig. 13 — output IO bytes per worker for the shadow-nodes strategy
//! across activation thresholds, on the out-skewed power-law graph.
//! Same axes and sweep as Fig. 12; the strategy under test differs.

use crate::fig12::sweep;
use crate::ExpCtx;
use inferturbo_common::Result;
use inferturbo_core::strategy::StrategyConfig;

pub fn run(ctx: &ExpCtx) -> Result<()> {
    sweep(
        ctx,
        "Fig 13: shadow-nodes threshold sweep (output bytes, out-skew)",
        "fig13_io_shadow.csv",
        strategy,
    )
    .map(drop)
}

/// The strategy under test at `threshold`; `None` is the base run.
pub fn strategy(threshold: Option<u32>) -> StrategyConfig {
    match threshold {
        None => StrategyConfig::none(),
        Some(t) => StrategyConfig::none()
            .with_shadow_nodes(true)
            .with_threshold(t),
    }
}
