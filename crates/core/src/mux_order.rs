//! Multiplexor processing order (Section IV-A of the paper).
//!
//! The selection loop of the algorithm processes one multiplexor at a time,
//! and accepting one multiplexor may make a later one infeasible.  The paper
//! processes multiplexors "closer to the outputs first" because a managed
//! multiplexor near the outputs shuts down a larger cone; Section IV-A notes
//! that this greedy order can be suboptimal and proposes reordering.  This
//! module provides the ordering strategies; the exhaustive/greedy reordering
//! search itself lives in [`crate::algorithm::power_manage_reordered`].

use std::collections::BTreeSet;

use cdfg::{cone, Cdfg, NodeId};

use crate::cones::MuxCones;

/// Strategy for choosing the order in which multiplexors are examined for
/// power management.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum MuxOrder {
    /// The paper's default: multiplexors closest to the primary outputs
    /// first (they gate the largest cones).
    #[default]
    OutputsFirst,
    /// The reverse order, useful as an ablation baseline.
    InputsFirst,
    /// Largest number of shut-down candidate operations first — a
    /// savings-driven greedy order, an instance of the "pre-processing
    /// algorithm which performs reordering of multiplexors" of Section IV-A.
    BySavings,
    /// An explicit, caller-supplied order.  Multiplexors missing from the
    /// list are appended in outputs-first order.
    Explicit(Vec<NodeId>),
}

impl MuxOrder {
    /// Produces the processing order of the design's multiplexors under this
    /// strategy.
    pub fn order(&self, cdfg: &Cdfg) -> Vec<NodeId> {
        let muxes = cdfg.mux_nodes();
        let cones = match self {
            MuxOrder::BySavings => MuxCones::analyze_all(cdfg),
            _ => Vec::new(),
        };
        self.order_from(&muxes, &cone::distances_to_outputs(cdfg), &cones)
    }

    /// [`MuxOrder::order`] from parts a caller evaluating many orders of
    /// one design computes once: the design's multiplexors in ascending id
    /// order, [`cone::distances_to_outputs`], and — read by
    /// [`MuxOrder::BySavings`] only — the cones of `muxes`, index-aligned.
    pub(crate) fn order_from(
        &self,
        muxes: &[NodeId],
        dist: &[Option<u32>],
        cones: &[MuxCones],
    ) -> Vec<NodeId> {
        let distance = |m: NodeId| dist[m.index()].unwrap_or(u32::MAX);
        match self {
            MuxOrder::OutputsFirst => sort_by_output_distance(muxes, distance, false),
            MuxOrder::InputsFirst => sort_by_output_distance(muxes, distance, true),
            MuxOrder::BySavings => {
                let mut with_sizes: Vec<(usize, u32, NodeId)> = cones
                    .iter()
                    .map(|c| (c.shutdown_candidate_count(), distance(c.mux), c.mux))
                    .collect();
                // Most candidates first; ties broken towards the outputs.
                with_sizes.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
                with_sizes.into_iter().map(|(_, _, m)| m).collect()
            }
            MuxOrder::Explicit(order) => {
                let all: BTreeSet<NodeId> = muxes.iter().copied().collect();
                let mut out: Vec<NodeId> =
                    order.iter().copied().filter(|m| all.contains(m)).collect();
                let mentioned: BTreeSet<NodeId> = out.iter().copied().collect();
                let rest: Vec<NodeId> =
                    muxes.iter().copied().filter(|m| !mentioned.contains(m)).collect();
                out.extend(sort_by_output_distance(&rest, distance, false));
                out
            }
        }
    }
}

fn sort_by_output_distance(
    muxes: &[NodeId],
    distance: impl Fn(NodeId) -> u32,
    reverse: bool,
) -> Vec<NodeId> {
    let mut keyed: Vec<(u32, NodeId)> = muxes.iter().map(|&m| (distance(m), m)).collect();
    keyed.sort();
    if reverse {
        keyed.reverse();
    }
    keyed.into_iter().map(|(_, m)| m).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::Op;

    /// Builds a chain of two conditionals where the outer mux is closer to
    /// the output than the inner one.
    fn two_muxes() -> (Cdfg, NodeId, NodeId) {
        let mut g = Cdfg::new("two");
        let x = g.add_input("x");
        let y = g.add_input("y");
        let c1 = g.add_op(Op::Gt, &[x, y]).unwrap();
        let c2 = g.add_op(Op::Lt, &[x, y]).unwrap();
        let sum = g.add_op(Op::Add, &[x, y]).unwrap();
        let prod = g.add_op(Op::Mul, &[x, y]).unwrap();
        let inner = g.add_mux(c2, sum, prod).unwrap();
        let diff = g.add_op(Op::Sub, &[x, y]).unwrap();
        let outer = g.add_mux(c1, diff, inner).unwrap();
        g.add_output("o", outer).unwrap();
        (g, inner, outer)
    }

    #[test]
    fn outputs_first_puts_outer_mux_first() {
        let (g, inner, outer) = two_muxes();
        assert_eq!(MuxOrder::OutputsFirst.order(&g), vec![outer, inner]);
        assert_eq!(MuxOrder::InputsFirst.order(&g), vec![inner, outer]);
    }

    #[test]
    fn by_savings_prefers_larger_shutdown_sets() {
        let (g, _inner, outer) = two_muxes();
        // The outer mux can shut down the entire inner computation, so it has
        // more candidates than the inner mux.
        let order = MuxOrder::BySavings.order(&g);
        assert_eq!(order[0], outer);
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn explicit_order_is_respected_and_completed() {
        let (g, inner, outer) = two_muxes();
        let order = MuxOrder::Explicit(vec![inner]).order(&g);
        assert_eq!(order, vec![inner, outer], "missing muxes appended");
        let order = MuxOrder::Explicit(vec![NodeId::new(999)]).order(&g);
        assert_eq!(order.len(), 2, "unknown ids are ignored");
    }

    #[test]
    fn default_is_outputs_first() {
        assert_eq!(MuxOrder::default(), MuxOrder::OutputsFirst);
    }
}
