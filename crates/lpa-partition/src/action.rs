//! Actions over partitioning states and their validity rules (Section 3.2,
//! "Actions").
//!
//! Each action affects at most one table's partitioning (partition /
//! replicate) or toggles one co-partitioning edge. Edge activation is only
//! allowed when *conflict-free*: no two active edges may require a table to
//! be partitioned by two different attributes.

use crate::partitioning::{Partitioning, TableState};
use lpa_schema::{AttrId, AttrRef, EdgeId, Schema, TableId};
use std::fmt;

/// One step the DRL agent can take.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Action {
    /// Hash-partition `table` by `attr`.
    Partition { table: TableId, attr: AttrId },
    /// Replicate `table` to all nodes.
    Replicate { table: TableId },
    /// Activate a co-partitioning edge (re-partitions both endpoints onto
    /// the edge attributes).
    ActivateEdge(EdgeId),
    /// Deactivate an edge (the tables stay partitioned as they are, but
    /// follow-up actions on them become legal again).
    DeactivateEdge(EdgeId),
}

/// Why an action is invalid in a given state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ActionError {
    /// The target attribute may not be used as a partitioning key.
    NotPartitionable,
    /// The table is pinned by an active edge; deactivate it first.
    TablePinned,
    /// The action would not change the state.
    NoOp,
    /// Activating the edge conflicts with another active edge.
    EdgeConflict,
    /// The edge is already in the requested activation state.
    EdgeStateUnchanged,
}

impl fmt::Display for ActionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotPartitionable => write!(f, "attribute is not partitionable"),
            Self::TablePinned => write!(f, "table is pinned by an active edge"),
            Self::NoOp => write!(f, "action would not change the state"),
            Self::EdgeConflict => write!(f, "conflicting active edge"),
            Self::EdgeStateUnchanged => write!(f, "edge already in that state"),
        }
    }
}

impl std::error::Error for ActionError {}

impl Action {
    /// Check validity in `state`.
    #[expect(
        clippy::indexing_slicing,
        reason = "attribute ids come from the table they index"
    )]
    pub fn validate(&self, schema: &Schema, state: &Partitioning) -> Result<(), ActionError> {
        match *self {
            Action::Partition { table, attr } => {
                if !schema.table(table).attributes[attr.0].partitionable {
                    return Err(ActionError::NotPartitionable);
                }
                if state.table_pinned(schema, table) {
                    return Err(ActionError::TablePinned);
                }
                if state.table_state(table) == TableState::PartitionedBy(attr) {
                    return Err(ActionError::NoOp);
                }
                Ok(())
            }
            Action::Replicate { table } => {
                if state.table_pinned(schema, table) {
                    return Err(ActionError::TablePinned);
                }
                if state.is_replicated(table) {
                    return Err(ActionError::NoOp);
                }
                Ok(())
            }
            Action::ActivateEdge(e) => {
                if state.edge_active(e) {
                    return Err(ActionError::EdgeStateUnchanged);
                }
                let edge = schema.edge(e);
                for ep in edge.endpoints() {
                    if !schema.attribute(ep).partitionable {
                        return Err(ActionError::NotPartitionable);
                    }
                    if Self::pin_conflict(schema, state, ep, e) {
                        return Err(ActionError::EdgeConflict);
                    }
                }
                Ok(())
            }
            Action::DeactivateEdge(e) => {
                if !state.edge_active(e) {
                    return Err(ActionError::EdgeStateUnchanged);
                }
                Ok(())
            }
        }
    }

    /// Whether activating `candidate` would require `ep.table` to be
    /// partitioned by an attribute different from what another active edge
    /// already requires.
    fn pin_conflict(schema: &Schema, state: &Partitioning, ep: AttrRef, candidate: EdgeId) -> bool {
        schema.edges_of(ep.table).any(|(id, other)| {
            id != candidate
                && state.edge_active(id)
                && other
                    .endpoint_on(ep.table)
                    .map(|o| o.attr != ep.attr)
                    .unwrap_or(false)
        })
    }

    /// Apply to a state, returning the successor. Errors if invalid.
    pub fn apply(
        &self,
        schema: &Schema,
        state: &Partitioning,
    ) -> Result<Partitioning, ActionError> {
        self.validate(schema, state)?;
        let mut next = state.clone();
        match *self {
            Action::Partition { table, attr } => {
                next.set_table_state(table, TableState::PartitionedBy(attr));
            }
            Action::Replicate { table } => {
                next.set_table_state(table, TableState::Replicated);
            }
            Action::ActivateEdge(e) => {
                next.set_edge(e, true);
                for ep in schema.edge(e).endpoints() {
                    next.set_table_state(ep.table, TableState::PartitionedBy(ep.attr));
                }
            }
            Action::DeactivateEdge(e) => {
                next.set_edge(e, false);
            }
        }
        debug_assert!(next.check(schema).is_ok());
        Ok(next)
    }

    /// Short label for logs/benches.
    #[expect(
        clippy::indexing_slicing,
        reason = "attribute ids come from the table they index"
    )]
    pub fn describe(&self, schema: &Schema) -> String {
        match *self {
            Action::Partition { table, attr } => format!(
                "partition {} by {}",
                schema.table(table).name,
                schema.table(table).attributes[attr.0].name
            ),
            Action::Replicate { table } => format!("replicate {}", schema.table(table).name),
            Action::ActivateEdge(e) => {
                let edge = schema.edge(e);
                format!("activate {} = {}", edge.left, edge.right)
            }
            Action::DeactivateEdge(e) => {
                let edge = schema.edge(e);
                format!("deactivate {} = {}", edge.left, edge.right)
            }
        }
    }
}

/// Enumerate every action valid in `state`, in a deterministic order.
///
/// Q-learning evaluates the network once per valid action per step, so the
/// action space is deliberately small (Section 3.2): one table change or
/// one edge toggle at a time.
pub fn valid_actions(schema: &Schema, state: &Partitioning) -> Vec<Action> {
    let mut out = Vec::new();
    for (ti, t) in schema.tables().iter().enumerate() {
        let table = TableId(ti);
        for attr in t.partitionable_attrs() {
            let a = Action::Partition { table, attr };
            if a.validate(schema, state).is_ok() {
                out.push(a);
            }
        }
        let r = Action::Replicate { table };
        if r.validate(schema, state).is_ok() {
            out.push(r);
        }
    }
    for ei in 0..schema.edges().len() {
        for a in [
            Action::ActivateEdge(EdgeId(ei)),
            Action::DeactivateEdge(EdgeId(ei)),
        ] {
            if a.validate(schema, state).is_ok() {
                out.push(a);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssb() -> Schema {
        lpa_schema::ssb::schema(0.001).expect("schema builds")
    }

    #[test]
    fn partition_and_replicate() {
        let s = ssb();
        let p0 = Partitioning::initial(&s);
        let lo = s.table_by_name("lineorder").unwrap();
        let p1 = Action::Partition {
            table: lo,
            attr: AttrId(1),
        }
        .apply(&s, &p0)
        .unwrap();
        assert_eq!(p1.table_state(lo), TableState::PartitionedBy(AttrId(1)));
        let p2 = Action::Replicate { table: lo }.apply(&s, &p1).unwrap();
        assert!(p2.is_replicated(lo));
    }

    #[test]
    fn noop_rejected() {
        let s = ssb();
        let p0 = Partitioning::initial(&s);
        let lo = s.table_by_name("lineorder").unwrap();
        let err = Action::Partition {
            table: lo,
            attr: AttrId(0),
        }
        .validate(&s, &p0)
        .unwrap_err();
        assert_eq!(err, ActionError::NoOp);
    }

    #[test]
    fn edge_activation_co_partitions() {
        let s = ssb();
        let p0 = Partitioning::initial(&s);
        let e0 = EdgeId(0); // lineorder.lo_custkey = customer.c_custkey
        let p1 = Action::ActivateEdge(e0).apply(&s, &p0).unwrap();
        assert!(p1.edge_active(e0));
        let edge = s.edge(e0);
        for ep in edge.endpoints() {
            assert_eq!(p1.table_state(ep.table), TableState::PartitionedBy(ep.attr));
        }
        p1.check(&s).unwrap();
    }

    #[test]
    fn conflicting_edge_rejected_until_deactivation() {
        // Paper's example: e2 cannot be activated while e1 pins lineorder to
        // lo_custkey; deactivate e1 first.
        let s = ssb();
        let p0 = Partitioning::initial(&s);
        let e_cust = EdgeId(0); // lineorder.lo_custkey
        let e_part = EdgeId(1); // lineorder.lo_partkey
        let p1 = Action::ActivateEdge(e_cust).apply(&s, &p0).unwrap();
        assert_eq!(
            Action::ActivateEdge(e_part).validate(&s, &p1),
            Err(ActionError::EdgeConflict)
        );
        let p2 = Action::DeactivateEdge(e_cust).apply(&s, &p1).unwrap();
        Action::ActivateEdge(e_part).apply(&s, &p2).unwrap();
    }

    #[test]
    fn pinned_table_rejects_direct_changes() {
        let s = ssb();
        let p0 = Partitioning::initial(&s);
        let p1 = Action::ActivateEdge(EdgeId(0)).apply(&s, &p0).unwrap();
        let cust = s.table_by_name("customer").unwrap();
        assert_eq!(
            Action::Replicate { table: cust }.validate(&s, &p1),
            Err(ActionError::TablePinned)
        );
    }

    #[test]
    fn non_partitionable_attr_rejected() {
        let s = lpa_schema::tpcch::schema(0.0001).expect("schema builds");
        let p0 = Partitioning::initial(&s);
        let r = s.attr_ref("customer", "c_w_id").unwrap();
        assert_eq!(
            Action::Partition {
                table: r.table,
                attr: r.attr
            }
            .validate(&s, &p0),
            Err(ActionError::NotPartitionable)
        );
    }

    #[test]
    fn valid_actions_cover_every_table() {
        let s = ssb();
        let p0 = Partitioning::initial(&s);
        let actions = valid_actions(&s, &p0);
        for (ti, _) in s.tables().iter().enumerate() {
            assert!(actions.iter().any(|a| matches!(
                a,
                Action::Replicate { table } if table.0 == ti
            )));
        }
        // All four SSB edges can be activated from s0; none deactivated.
        assert_eq!(
            actions
                .iter()
                .filter(|a| matches!(a, Action::ActivateEdge(_)))
                .count(),
            4
        );
        assert_eq!(
            actions
                .iter()
                .filter(|a| matches!(a, Action::DeactivateEdge(_)))
                .count(),
            0
        );
    }

    #[test]
    fn any_state_reachable_within_table_count_actions() {
        // The paper's t_max >= |T| argument: one action per table suffices
        // to reach any pure table-state partitioning from s0.
        let s = ssb();
        let p0 = Partitioning::initial(&s);
        let target = Partitioning::from_states(
            &s,
            vec![
                TableState::PartitionedBy(AttrId(1)),
                TableState::Replicated,
                TableState::Replicated,
                TableState::PartitionedBy(AttrId(0)),
                TableState::Replicated,
            ],
        );
        let mut cur = p0;
        let mut steps = 0;
        for (ti, want) in target.table_states().iter().enumerate() {
            let table = TableId(ti);
            if cur.table_state(table) == *want {
                continue;
            }
            let action = match want {
                TableState::Replicated => Action::Replicate { table },
                TableState::PartitionedBy(a) => Action::Partition { table, attr: *a },
            };
            cur = action.apply(&s, &cur).unwrap();
            steps += 1;
        }
        assert_eq!(cur.table_states(), target.table_states());
        assert!(steps <= s.tables().len());
    }
}
