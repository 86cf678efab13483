//! The fleet's fault-injection seam.
//!
//! The slice loop consults one [`SliceHook`] at the two points where the
//! keystone tests and the robustness experiments need to interfere: before
//! a slice does any work (to fail it), and before the advisor is asked (to
//! put a candidate of the hook's choosing in front of the guardrail).
//! Production fleets run [`NoHook`]; the seeded implementation the
//! keystones and `exp9` drive lives with the experiment harness
//! (`lpa_bench::SeededChaos`), not in this crate.
//!
//! Contract: both methods must be **pure** in their arguments (and the
//! hook's own construction-time configuration). The fleet does not
//! checkpoint the hook — a resumed fleet gets the same hook installed again
//! and must replay the same failures and the same poison.

use lpa_cluster::CandidateDeploy;
use lpa_partition::Partitioning;
use lpa_schema::Schema;

/// What the slice loop asks before it acts. Every method defaults to "do
/// not interfere".
pub trait SliceHook: std::fmt::Debug {
    /// `true` fails the slice of `(tenant, round)` before it does any work:
    /// training, advice and the cluster clock stay untouched and the error
    /// goes through the quarantine funnel.
    fn step_error(&self, _tenant: usize, _round: u64) -> bool {
        false
    }

    /// A candidate to stage instead of the advisor's suggestion. Asked only
    /// while the tenant has no canary open; `deployed` is the layout its
    /// cluster runs right now.
    fn candidate(
        &self,
        _tenant: usize,
        _round: u64,
        _schema: &Schema,
        _deployed: &Partitioning,
    ) -> Option<CandidateDeploy> {
        None
    }
}

/// The production hook: never interferes.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoHook;

impl SliceHook for NoHook {}
