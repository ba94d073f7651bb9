//! Problem instances and model parameters shared by every protocol.

use caaf::oracle::CorrectInterval;
use caaf::Caaf;
use netsim::{FailureSchedule, Graph, NodeId, Round};

/// The model parameters every protocol knows (Section 2 of the paper):
/// system size `N`, the root's id, the diameter `d` of `G`, the stretch
/// constant `c` (failures never push the live diameter beyond `c·d`), and
/// the input-domain ceiling (polynomial in `N`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Model {
    /// Number of nodes `N`.
    pub n: usize,
    /// The distinguished root node (never crashes).
    pub root: NodeId,
    /// Diameter `d` of the failure-free topology.
    pub d: u32,
    /// Stretch constant `c`: residual diameter stays `≤ c·d`.
    pub c: u32,
    /// Upper bound on any node's input value.
    pub max_input: u64,
}

impl Model {
    /// Rounds in one *flooding round* (`d` plain rounds).
    pub fn flooding_round(&self) -> u64 {
        u64::from(self.d)
    }

    /// `c · d`, the per-flood propagation budget used throughout the
    /// protocols' phase arithmetic.
    #[inline]
    pub fn cd(&self) -> u64 {
        u64::from(self.c) * u64::from(self.d)
    }

    /// The paper's `log N` (bits per node id).
    pub fn id_bits(&self) -> u32 {
        wire::id_bits(self.n)
    }

    /// Converts plain rounds to flooding rounds, rounding up — the paper's
    /// TC unit.
    pub fn to_flooding_rounds(&self, rounds: Round) -> u64 {
        rounds.div_ceil(self.flooding_round().max(1))
    }
}

/// A complete problem instance: topology, root, per-node inputs, the
/// adversary's schedule, and the input-domain bound.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The (connected) communication topology.
    pub graph: Graph,
    /// The root node.
    pub root: NodeId,
    /// `inputs[i]` is node `i`'s input `o_i`.
    pub inputs: Vec<u64>,
    /// The oblivious failure schedule.
    pub schedule: FailureSchedule,
    /// Upper bound on input values (domain polynomial in `N`).
    pub max_input: u64,
}

impl Instance {
    /// Builds an instance, validating the pieces against each other.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation: disconnected graph,
    /// input-count mismatch, an input exceeding `max_input`, or a schedule
    /// that crashes the root / references unknown nodes.
    pub fn new(
        graph: Graph,
        root: NodeId,
        inputs: Vec<u64>,
        schedule: FailureSchedule,
        max_input: u64,
    ) -> Result<Self, String> {
        if !graph.is_connected() {
            return Err("topology must be connected".into());
        }
        if root.index() >= graph.len() {
            return Err(format!("root {root} out of range"));
        }
        if inputs.len() != graph.len() {
            return Err(format!("expected {} inputs, got {}", graph.len(), inputs.len()));
        }
        if let Some(&bad) = inputs.iter().find(|&&v| v > max_input) {
            return Err(format!("input {bad} exceeds max_input {max_input}"));
        }
        schedule.validate(&graph, root)?;
        Ok(Instance { graph, root, inputs, schedule, max_input })
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.graph.len()
    }

    /// Model parameters with stretch constant `c`. `d` is
    /// [`Graph::diameter`], which the graph computes once and caches, so
    /// calling this once per pair costs no graph search after the first.
    pub fn model(&self, c: u32) -> Model {
        Model {
            n: self.n(),
            root: self.root,
            d: self.graph.diameter().max(1),
            c,
            max_input: self.max_input,
        }
    }

    /// The paper's `f` for this instance: edges incident to nodes that ever
    /// crash.
    pub fn edge_failures(&self) -> usize {
        self.schedule.edge_failures(&self.graph)
    }

    /// The interval of correct results if the protocol terminates at
    /// `end_round`: mandatory inputs are those of nodes alive **and**
    /// root-connected at `end_round`; inputs of the rest are optional.
    pub fn correct_interval<C: Caaf>(&self, op: &C, end_round: Round) -> CorrectInterval {
        let dead = self.schedule.dead_by(end_round);
        let alive = self.graph.reachable_from(self.root, &dead);
        let alive_set: std::collections::HashSet<NodeId> = alive.iter().copied().collect();
        let mut mandatory = Vec::new();
        let mut optional = Vec::new();
        for v in self.graph.nodes() {
            if alive_set.contains(&v) {
                mandatory.push(self.inputs[v.index()]);
            } else {
                optional.push(self.inputs[v.index()]);
            }
        }
        caaf::oracle::correct_interval(op, &mandatory, &optional)
    }

    /// Sum of all inputs (the failure-free answer), for reporting.
    pub fn full_aggregate<C: Caaf>(&self, op: &C) -> u64 {
        op.aggregate(self.inputs.iter().copied())
    }

    /// The instance as a stage that starts after global round `offset`
    /// sees it: the schedule is [`FailureSchedule::shifted`] and nothing
    /// is re-validated. Its [`Instance::correct_interval`] at local round
    /// `r ≥ 1` is this instance's at `offset + r`, so every stage of a
    /// run (Algorithm 1's intervals, the doubling stages, the folklore
    /// retries, the fallback) runs and is judged by the run's one
    /// schedule.
    pub fn shifted(&self, offset: Round) -> Instance {
        Instance {
            graph: self.graph.clone(),
            root: self.root,
            inputs: self.inputs.clone(),
            schedule: self.schedule.shifted(offset),
            max_input: self.max_input,
        }
    }
}

/// Lets a driver take `&inst` or an owned stage from
/// [`Instance::shifted`] as `impl Into<Instance>`: a reference is copied,
/// and a stage moves its schedule into the engine without another copy.
impl From<&Instance> for Instance {
    fn from(inst: &Instance) -> Instance {
        inst.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caaf::Sum;
    use netsim::topology;

    fn base_instance() -> Instance {
        Instance::new(topology::path(4), NodeId(0), vec![1, 2, 3, 4], FailureSchedule::none(), 100)
            .unwrap()
    }

    #[test]
    fn model_arithmetic() {
        let m = base_instance().model(2);
        assert_eq!(m.d, 3);
        assert_eq!(m.cd(), 6);
        assert_eq!(m.flooding_round(), 3);
        assert_eq!(m.id_bits(), 2);
        assert_eq!(m.to_flooding_rounds(7), 3);
        assert_eq!(m.to_flooding_rounds(6), 2);
    }

    #[test]
    fn new_validates() {
        let g = netsim::Graph::new(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(Instance::new(g, NodeId(0), vec![0; 4], FailureSchedule::none(), 1).is_err());

        let g = topology::path(3);
        assert!(
            Instance::new(g.clone(), NodeId(9), vec![0; 3], FailureSchedule::none(), 1).is_err()
        );
        assert!(
            Instance::new(g.clone(), NodeId(0), vec![0; 2], FailureSchedule::none(), 1).is_err()
        );
        assert!(
            Instance::new(g.clone(), NodeId(0), vec![0, 5, 0], FailureSchedule::none(), 1).is_err()
        );
        let mut s = FailureSchedule::none();
        s.crash(NodeId(0), 1);
        assert!(Instance::new(g, NodeId(0), vec![0; 3], s, 1).is_err());
    }

    #[test]
    fn correct_interval_tracks_partition() {
        let mut s = FailureSchedule::none();
        s.crash(NodeId(1), 5);
        let inst = Instance::new(topology::path(4), NodeId(0), vec![1, 2, 3, 4], s, 100).unwrap();
        // Before the crash everything is mandatory.
        let iv = inst.correct_interval(&Sum, 4);
        assert_eq!((iv.lo, iv.hi), (10, 10));
        // After: node 1 failed, nodes 2 and 3 partitioned -> all optional.
        let iv = inst.correct_interval(&Sum, 5);
        assert_eq!((iv.lo, iv.hi), (1, 10));
        assert_eq!(inst.edge_failures(), 2);
        assert_eq!(inst.full_aggregate(&Sum), 10);
    }
}
