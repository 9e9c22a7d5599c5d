//! Precedence edges layered over a [`Cdfg`] without mutating it.
//!
//! Inserting a control edge into a [`Cdfg`] drops its cached [`Slices`]
//! view, and the next query rebuilds the whole CSR adjacency.  A pass that
//! accepts edges one batch at a time and queries the graph between batches
//! (the power-management selection loop) would rebuild the view once per
//! batch.  An [`EdgeOverlay`] holds those edges beside the graph instead:
//! readers walk `slices.preds(n)` followed by `overlay.preds(n)` (and the
//! same for successors), and the graph — with its cached view — stays
//! untouched until the edges are inserted for good.
//!
//! [`Cdfg`]: crate::Cdfg
//! [`Slices`]: crate::Slices

use crate::graph::NodeId;

/// Extra `before -> after` precedence edges over a graph's adjacency.
///
/// Per-node lists keep insertion order and may repeat an edge the graph or
/// the overlay already has; every reader treats adjacency as a set of
/// constraints, so repeats change nothing.  [`EdgeOverlay::clear`] costs
/// the number of nodes the overlay touched, not the graph size.
#[derive(Debug, Clone, Default)]
pub struct EdgeOverlay {
    preds: Vec<Vec<NodeId>>,
    succs: Vec<Vec<NodeId>>,
    touched: Vec<NodeId>,
}

impl EdgeOverlay {
    /// An empty overlay.
    pub fn new() -> Self {
        EdgeOverlay::default()
    }

    /// Removes every edge.
    pub fn clear(&mut self) {
        for &n in &self.touched {
            self.preds[n.index()].clear();
            self.succs[n.index()].clear();
        }
        self.touched.clear();
    }

    /// Adds the edge `before -> after`.  The caller guarantees that the
    /// graph plus the overlay stays acyclic.
    pub fn insert(&mut self, before: NodeId, after: NodeId) {
        let slots = before.index().max(after.index()) + 1;
        if self.preds.len() < slots {
            self.preds.resize_with(slots, Vec::new);
            self.succs.resize_with(slots, Vec::new);
        }
        for n in [before, after] {
            if self.preds[n.index()].is_empty() && self.succs[n.index()].is_empty() {
                self.touched.push(n);
            }
        }
        self.succs[before.index()].push(after);
        self.preds[after.index()].push(before);
    }

    /// Overlay predecessors of `id`, in insertion order.
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        self.preds.get(id.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Overlay successors of `id`, in insertion order.
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        self.succs.get(id.index()).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_records_both_directions_and_clear_forgets_them() {
        let (a, b, c) = (NodeId::new(0), NodeId::new(4), NodeId::new(2));
        let mut o = EdgeOverlay::new();
        assert!(o.preds(b).is_empty(), "unknown ids have no overlay edges");
        o.insert(a, b);
        o.insert(c, b);
        o.insert(a, c);
        assert_eq!(o.preds(b), &[a, c]);
        assert_eq!(o.succs(a), &[b, c]);
        assert_eq!(o.succs(c), &[b]);
        o.clear();
        for n in [a, b, c] {
            assert!(o.preds(n).is_empty() && o.succs(n).is_empty(), "{n} cleared");
        }
        o.insert(c, a);
        assert_eq!(o.preds(a), &[c], "reusable after clear");
    }
}
