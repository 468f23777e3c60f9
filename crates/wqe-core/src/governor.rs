//! The query governor, surfaced at the algorithm layer.
//!
//! The mechanism lives in [`wqe_pool::governor`] (the bottom of the crate
//! graph, so the oracle and matcher can poll it without a dependency
//! cycle); this module re-exports the types and adds the [`WqeConfig`]
//! glue: [`governor_for`] builds the session governor from the config's
//! `deadline_ms` / `max_match_steps` / `max_frontier_states` knobs.
//!
//! See DESIGN.md "Query governor" for the limit semantics, the
//! [`Termination`] vocabulary, and the degradation order
//! (exact → partial → error).

use crate::session::WqeConfig;
use std::sync::Arc;
use std::time::Duration;

pub use wqe_pool::governor::{current, Governor, Termination};

/// Builds the governor a session should run under: the config's
/// `deadline_ms` arms the wall-clock deadline (0 = none), `max_match_steps`
/// caps join work, `max_frontier_states` caps retained search states. A
/// fully-default config yields [`Governor::unlimited`] — checks stay live
/// (so [`Governor::cancel`] works) but nothing trips on its own.
pub fn governor_for(config: &WqeConfig) -> Arc<Governor> {
    let deadline =
        (config.deadline_ms > 0.0).then(|| Duration::from_secs_f64(config.deadline_ms / 1e3));
    Arc::new(Governor::new(
        deadline,
        config.max_match_steps,
        config.max_frontier_states,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_unlimited() {
        let gov = governor_for(&WqeConfig::default());
        assert_eq!(gov.halt(), None);
        assert_eq!(gov.charge_steps(1_000_000), None);
        assert_eq!(gov.note_frontier(1_000_000), None);
    }

    #[test]
    fn config_limits_arm_the_governor() {
        let gov = governor_for(&WqeConfig {
            max_match_steps: 5,
            max_frontier_states: 3,
            ..WqeConfig::default()
        });
        assert_eq!(gov.charge_steps(6), Some(Termination::StepCap));
        assert_eq!(gov.note_frontier(4), Some(Termination::FrontierCap));
    }

    #[test]
    fn deadline_ms_arms_the_deadline() {
        let gov = governor_for(&WqeConfig {
            deadline_ms: 1.0,
            ..WqeConfig::default()
        });
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(gov.halt(), Some(Termination::Deadline));
    }
}
